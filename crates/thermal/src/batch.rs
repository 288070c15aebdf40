//! Batched backward-Euler stepping of many identical-topology networks
//! through shared factorizations.
//!
//! A rack of identically configured servers steps N copies of the same
//! thermal network. Per-server [`TransientSolver`](crate::TransientSolver)s
//! already avoid refactoring during constant-flow stretches, but they
//! still pay N separate back-substitutions on N separate copies of the
//! *same* matrix — same topology, same conductances, same `(dt, flow)`
//! key ⇒ bit-identical `(C + h·G)`.
//!
//! [`BatchSolver`] shares that work. Lanes (network/state pairs) are
//! grouped by their `(dt, flow-values)` signature; each group factors
//! `(C + h·G)` once and back-substitutes all members as one slot-major
//! blocked multi-RHS solve whose inner loops run over contiguous lanes
//! and vectorize. Per-lane inputs that live in the right-hand side —
//! power injections and boundary (inlet) temperatures — stay fully
//! independent, cached per lane on the network's invalidation
//! generations.
//!
//! Every lane's arithmetic is bit-identical to stepping it alone
//! through a `TransientSolver` with the same backend: assembly,
//! factorization and the per-lane accumulation order of the block
//! substitution all match the scalar path exactly. A fleet of one
//! therefore reproduces the single-server trajectory to the last bit.

use std::borrow::Borrow;

use leakctl_units::SimDuration;

use crate::backend::{AutoBackend, SolverBackend};
use crate::error::ThermalError;
use crate::network::{ThermalNetwork, ThermalState};

/// One batch member: a network (read side: inputs and generations) and
/// its temperature state (advanced in place).
#[derive(Debug)]
pub struct BatchLane<'a> {
    /// The lane's network; must be structurally identical to the batch
    /// template (same [`structure_hash`](ThermalNetwork::structure_hash)).
    pub net: &'a ThermalNetwork,
    /// The lane's temperature state.
    pub state: &'a mut ThermalState,
}

/// Slot-major packed lane states for [`BatchSolver::step_packed`], the
/// homogeneous-flow fast path: temperatures and cached sources live as
/// `n × batch` blocks (`[slot * batch + lane]`) that persist across
/// steps, so the per-step right-hand-side build, solve and divergence
/// check all run over contiguous memory with no per-lane gather or
/// scatter. Trajectories are bit-identical to the per-lane
/// [`BatchSolver::step`] API (and therefore to scalar stepping).
///
/// Pack once with [`PackedLanes::pack`], step many times, and
/// [`PackedLanes::unpack_into`] whenever per-lane [`ThermalState`]s are
/// needed again.
#[derive(Debug, Clone)]
pub struct PackedLanes {
    n: usize,
    batch: usize,
    /// Temperatures, `temps[slot * batch + lane]`.
    temps: Vec<f64>,
    /// Combined per-lane sources `s = s_power + s_bound`,
    /// `s[slot * batch + lane]` — the layout the per-step RHS build
    /// streams over.
    s: Vec<f64>,
    /// *Lane-major* staging halves of `s`
    /// (`stage_power[lane * n + slot]`): a lane's source assembly
    /// writes one contiguous `n`-slice instead of `n` stride-`batch`
    /// scatters, and a dense refresh (every lane changed, the dynamic
    /// fleet regime) recombines into `s` with one cache-friendly
    /// transpose pass over an L1-resident staging block. Cached halves
    /// are kept separate so a power-only change refreshes without
    /// re-walking the boundary edges and vice versa.
    stage_power: Vec<f64>,
    stage_bound: Vec<f64>,
    /// Lanes whose staging changed this refresh and still need their
    /// `s` column recombined.
    dirty: Vec<bool>,
    /// `false` while `s` lags the staging buffers (a dense refresh
    /// defers the recombine: the RHS build reads the staging directly
    /// that step, and `s` is rebuilt lazily on the next sparse/clean
    /// step).
    s_valid: bool,
    /// Slot → node index map of the (shared) topology, captured at the
    /// first refresh and keyed on the structure hash it was captured
    /// under (re-captured if a different-topology solver ever drives
    /// this block): power staging then reads each lane's raw power
    /// array directly instead of re-deriving the mapping per lane.
    slot_map: Vec<usize>,
    slot_map_key: Option<u64>,
    // Per-lane source-cache keys (same invalidation protocol as the
    // scalar solver).
    cond_keys: Vec<Option<(u64, u64)>>,
    power_keys: Vec<Option<u64>>,
    /// Flow generation seen per lane at the last signature check; any
    /// change forces a homogeneity recheck.
    flow_gens: Vec<u64>,
    /// `true` while every lane is known to share the reference flow
    /// signature.
    homogeneous: bool,
    // Per-shard solve workspaces (each packed block owns its own, so
    // shards solve concurrently without touching the solver).
    rhs: Vec<f64>,
    acc: Vec<f64>,
}

impl PackedLanes {
    /// Packs per-lane states into slot-major block storage.
    ///
    /// # Panics
    ///
    /// Panics when `states` is empty or the states disagree in
    /// dimension.
    #[must_use]
    pub fn pack(states: &[ThermalState]) -> Self {
        assert!(!states.is_empty(), "packed batch needs at least one lane");
        let n = states[0].temps.len();
        let batch = states.len();
        let mut temps = vec![0.0; n * batch];
        for (lane, state) in states.iter().enumerate() {
            assert_eq!(state.temps.len(), n, "lane states must agree in dimension");
            for (slot, &t) in state.temps.iter().enumerate() {
                temps[slot * batch + lane] = t;
            }
        }
        Self {
            n,
            batch,
            temps,
            s: vec![0.0; n * batch],
            stage_power: vec![0.0; n * batch],
            stage_bound: vec![0.0; n * batch],
            dirty: vec![false; batch],
            s_valid: true,
            slot_map: Vec::new(),
            slot_map_key: None,
            cond_keys: vec![None; batch],
            power_keys: vec![None; batch],
            flow_gens: vec![0; batch],
            homogeneous: false,
            rhs: vec![0.0; n * batch],
            acc: vec![0.0; batch],
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// State dimension per lane.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.n
    }

    /// Writes the packed temperatures back into per-lane states.
    ///
    /// # Panics
    ///
    /// Panics when `states` does not match the packed batch shape.
    pub fn unpack_into(&self, states: &mut [ThermalState]) {
        assert_eq!(states.len(), self.batch, "state count must match batch");
        for (lane, state) in states.iter_mut().enumerate() {
            assert_eq!(state.temps.len(), self.n, "lane state dimension");
            for (slot, t) in state.temps.iter_mut().enumerate() {
                *t = self.temps[slot * self.batch + lane];
            }
        }
    }

    /// The hottest packed temperature across all lanes.
    #[must_use]
    pub fn max_temperature(&self) -> f64 {
        self.temps.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Writes one lane's packed temperatures back into `state`.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range or `state` has the wrong
    /// dimension.
    pub fn unpack_lane_into(&self, lane: usize, state: &mut ThermalState) {
        assert!(lane < self.batch, "lane out of range");
        assert_eq!(state.temps.len(), self.n, "lane state dimension");
        for (slot, t) in state.temps.iter_mut().enumerate() {
            *t = self.temps[slot * self.batch + lane];
        }
    }

    /// The packed temperatures, slot-major (`[slot * batch + lane]`) —
    /// the block fleet engines read per-lane die temperatures from
    /// between solves, with no unpack.
    #[must_use]
    pub fn temperatures(&self) -> &[f64] {
        &self.temps
    }

    /// One packed temperature, `(lane, slot)`.
    ///
    /// # Panics
    ///
    /// Panics when `lane` or `slot` is out of range.
    #[must_use]
    pub fn lane_temperature(&self, lane: usize, slot: usize) -> f64 {
        assert!(lane < self.batch && slot < self.n, "lane/slot out of range");
        self.temps[slot * self.batch + lane]
    }

    /// Refreshes the packed source block from each lane's network,
    /// change-driven on the networks' invalidation generations.
    /// Returns `true` when any lane's flow generation moved (the caller
    /// must then recheck flow homogeneity).
    ///
    /// A stale lane assembles into its contiguous *lane-major* staging
    /// slice; afterwards the dirty columns of the slot-major `s` block
    /// are recombined — one dense transpose pass over the L1-resident
    /// staging block when most lanes changed (the dynamic fleet
    /// regime), or per-lane strided column updates when changes are
    /// sparse. Values and addition order match the scalar solver's
    /// `s = s_power + s_bound` exactly, so trajectories stay
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics when a lane's network does not match `structure_hash` or
    /// the packed dimension.
    pub(crate) fn refresh_sources<'n, F>(&mut self, net_of: F, structure_hash: u64) -> bool
    where
        F: Fn(usize) -> &'n ThermalNetwork,
    {
        let n = self.n;
        let batch = self.batch;
        if self.slot_map_key != Some(structure_hash) {
            self.slot_map.clear();
            self.slot_map.extend_from_slice(net_of(0).slot_to_node());
            self.slot_map_key = Some(structure_hash);
        }
        let mut flows_moved = false;
        let mut dirty_count = 0usize;
        for lane in 0..batch {
            let net = net_of(lane);
            assert_eq!(
                net.structure_hash(),
                structure_hash,
                "lane network is not structurally identical to the batch template"
            );
            assert_eq!(net.state_count(), n, "lane network dimension");
            let flow_gen = net.flow_generation();
            if self.flow_gens[lane] != flow_gen {
                self.flow_gens[lane] = flow_gen;
                flows_moved = true;
            }
            let cond_key = (flow_gen, net.boundary_generation());
            let power_key = net.power_generation();
            let mut stale = false;
            if self.cond_keys[lane] != Some(cond_key) {
                net.assemble_boundary_source_into(&mut self.stage_bound[lane * n..(lane + 1) * n]);
                self.cond_keys[lane] = Some(cond_key);
                stale = true;
            }
            if self.power_keys[lane] != Some(power_key) {
                let powers = net.powers_raw();
                for (stage, &node) in self.stage_power[lane * n..(lane + 1) * n]
                    .iter_mut()
                    .zip(&self.slot_map)
                {
                    *stage = powers[node];
                }
                self.power_keys[lane] = Some(power_key);
                stale = true;
            }
            if stale && !self.dirty[lane] {
                self.dirty[lane] = true;
                dirty_count += 1;
            }
        }
        if dirty_count == 0 && self.s_valid {
            return flows_moved;
        }
        if dirty_count * 2 >= batch {
            // Dense refresh (the dynamic fleet regime: most lanes
            // changed): defer the recombine entirely — the RHS build
            // reads the staging block directly this step, skipping one
            // full write+read pass over `s`.
            self.s_valid = false;
        } else if !self.s_valid || dirty_count * 4 >= batch {
            // Recombine every column in one transpose pass —
            // contiguous writes per slot row, gather reads from a
            // staging block small enough to stay cache-resident. Clean
            // columns are rewritten with their (identical) staged
            // values, which is exact.
            for slot in 0..n {
                let row = slot * batch;
                let s_row = &mut self.s[row..row + batch];
                for (lane, s) in s_row.iter_mut().enumerate() {
                    let at = lane * n + slot;
                    *s = self.stage_power[at] + self.stage_bound[at];
                }
            }
            self.s_valid = true;
        } else {
            for lane in 0..batch {
                if !self.dirty[lane] {
                    continue;
                }
                for slot in 0..n {
                    let at = lane * n + slot;
                    self.s[slot * batch + lane] = self.stage_power[at] + self.stage_bound[at];
                }
            }
        }
        self.dirty[..batch].fill(false);
        flows_moved
    }

    /// Builds the backward-Euler right-hand side `C·T + h·s` for every
    /// lane and solves the block through `backend`'s cached `(C + h·G)`
    /// factors, advancing the packed temperatures in place. The whole
    /// step streams over contiguous slot-major rows; per-lane
    /// arithmetic is bit-identical to a scalar solve.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when the backend holds
    /// no valid factors and [`ThermalError::Diverged`] (named through
    /// `net_of`) on a non-finite result.
    pub(crate) fn solve_be_block<'n, B, F>(
        &mut self,
        backend: &B,
        c: &[f64],
        h: f64,
        net_of: F,
    ) -> Result<(), ThermalError>
    where
        B: SolverBackend,
        F: Fn(usize) -> &'n ThermalNetwork,
    {
        let n = self.n;
        let batch = self.batch;
        if self.s_valid {
            for (slot, &ci) in c.iter().enumerate() {
                let row = slot * batch;
                let temps = &self.temps[row..row + batch];
                let s_row = &self.s[row..row + batch];
                for ((r, &t), &si) in self.rhs[row..row + batch].iter_mut().zip(temps).zip(s_row) {
                    *r = ci * t + h * si;
                }
            }
        } else {
            // Deferred recombine: fold `s = s_power + s_bound` into the
            // RHS build straight from the lane-major staging (same
            // operand order as the recombine pass, so values are
            // bit-identical).
            for (slot, &ci) in c.iter().enumerate() {
                let row = slot * batch;
                let temps = &self.temps[row..row + batch];
                for (lane, (r, &t)) in self.rhs[row..row + batch].iter_mut().zip(temps).enumerate()
                {
                    let at = lane * n + slot;
                    let si = self.stage_power[at] + self.stage_bound[at];
                    *r = ci * t + h * si;
                }
            }
        }
        backend.solve_be_block_into(&self.rhs, &mut self.temps, batch, &mut self.acc)?;
        if let Some(bad) = self.temps.iter().position(|t| !t.is_finite()) {
            let slot = bad / batch;
            let lane = bad % batch;
            return Err(ThermalError::Diverged {
                name: net_of(lane).slot_name(slot).to_owned(),
            });
        }
        Ok(())
    }

    /// As [`Self::solve_be_block`], with the sources supplied by the
    /// caller instead of refreshed from per-lane networks: `powers` is
    /// the slot-major (`[slot * batch + lane]`) power injection of every
    /// lane, and `bound` the boundary source every lane shares (lanes
    /// with common flows and boundary temperatures). The source is
    /// `power + bound`, the same operands in the same order as the
    /// refreshed path, so results are bit-identical to it.
    ///
    /// The solve and the finiteness check repeat
    /// [`Self::solve_be_block`]'s instead of sharing a helper: with the
    /// helper split out, the packed kernel (`rack128_batch_dynamic`)
    /// lost about a quarter of its throughput.
    ///
    /// # Errors
    ///
    /// As [`Self::solve_be_block`].
    pub(crate) fn solve_be_block_with<B: SolverBackend>(
        &mut self,
        backend: &B,
        c: &[f64],
        h: f64,
        powers: &[f64],
        bound: &[f64],
        names: &ThermalNetwork,
    ) -> Result<(), ThermalError> {
        let batch = self.batch;
        assert_eq!(powers.len(), self.n * batch, "power block shape");
        assert_eq!(bound.len(), self.n, "boundary source dimension");
        for (slot, (&ci, &b)) in c.iter().zip(bound).enumerate() {
            let row = slot * batch;
            let temps = &self.temps[row..row + batch];
            let p_row = &powers[row..row + batch];
            for ((r, &t), &p) in self.rhs[row..row + batch].iter_mut().zip(temps).zip(p_row) {
                *r = ci * t + h * (p + b);
            }
        }
        backend.solve_be_block_into(&self.rhs, &mut self.temps, batch, &mut self.acc)?;
        if let Some(bad) = self.temps.iter().position(|t| !t.is_finite()) {
            return Err(ThermalError::Diverged {
                name: names.slot_name(bad / batch).to_owned(),
            });
        }
        Ok(())
    }
}

/// Per-lane cached right-hand-side assembly, keyed on the lane
/// network's invalidation generations (mirrors the source caches of a
/// scalar `TransientSolver`).
#[derive(Debug, Clone)]
struct LaneCache {
    cond_key: Option<(u64, u64)>,
    power_key: Option<u64>,
    s_bound: Vec<f64>,
    s_power: Vec<f64>,
    s: Vec<f64>,
    /// Cached group assignment, valid while the lane's flow generation,
    /// the step size and the group table's epoch are all unchanged.
    group: usize,
    group_flow_gen: u64,
    group_h_bits: u64,
    group_epoch: u64,
}

impl LaneCache {
    fn new(n: usize) -> Self {
        Self {
            cond_key: None,
            power_key: None,
            s_bound: vec![0.0; n],
            s_power: vec![0.0; n],
            s: vec![0.0; n],
            group: usize::MAX,
            group_flow_gen: 0,
            group_h_bits: 0,
            group_epoch: 0,
        }
    }
}

/// One shared factorization: all lanes whose `(h, flow-values)`
/// signature matches `key` step through this backend's `(C + h·G)`
/// factors.
#[derive(Debug, Clone)]
struct GroupCache<B> {
    /// `(h.to_bits(), per-channel flow bits)`.
    key: (u64, Vec<u64>),
    backend: B,
    /// Step counter of the last use, for LRU replacement.
    last_used: u64,
}

/// Upper bound on retained shared factorizations. Fan-slew transients
/// mint a new flow signature every step; beyond this many live groups
/// the least-recently-used one is recycled.
const MAX_GROUPS: usize = 32;

/// Steps N identical-topology networks through shared backward-Euler
/// factorizations with a blocked multi-RHS substitution.
///
/// Build it from any network of the target topology (the *template* —
/// only its structure is read), then call [`BatchSolver::step`] with
/// the fleet's lanes each step. Lanes may diverge freely in powers and
/// boundary temperatures (right-hand side, always per-lane) and even in
/// flows (the batch splits into per-signature groups, each with its own
/// shared factorization).
///
/// # Example
///
/// ```
/// use leakctl_thermal::{
///     BatchLane, BatchSolver, Coupling, ThermalNetworkBuilder,
/// };
/// use leakctl_units::{Celsius, SimDuration, ThermalCapacitance, ThermalConductance, Watts};
///
/// # fn main() -> Result<(), leakctl_thermal::ThermalError> {
/// let build = || {
///     let mut b = ThermalNetworkBuilder::new();
///     let die = b.add_node("die", ThermalCapacitance::new(120.0));
///     let amb = b.add_boundary("ambient", Celsius::new(24.0));
///     b.connect(die, amb, Coupling::Conductance(ThermalConductance::new(2.0)))
///         .unwrap();
///     (b.build().unwrap(), die)
/// };
/// let (mut a, die_a) = build();
/// let (mut b, die_b) = build();
/// a.set_power(die_a, Watts::new(50.0))?;
/// b.set_power(die_b, Watts::new(100.0))?;
///
/// let mut solver = BatchSolver::new(&a);
/// let mut state_a = a.uniform_state(Celsius::new(24.0));
/// let mut state_b = b.uniform_state(Celsius::new(24.0));
/// for _ in 0..600 {
///     let mut lanes = [
///         BatchLane { net: &a, state: &mut state_a },
///         BatchLane { net: &b, state: &mut state_b },
///     ];
///     solver.step(&mut lanes, SimDuration::from_secs(1))?;
/// }
/// // Twice the power, twice the rise — through one factorization.
/// assert!((a.temperature(&state_a, die_a).degrees() - 49.0).abs() < 0.5);
/// assert!((b.temperature(&state_b, die_b).degrees() - 74.0).abs() < 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchSolver<B: SolverBackend = AutoBackend> {
    n: usize,
    structure_hash: u64,
    /// Pristine backend built once from the template: cloned per group
    /// so shared immutable setup (notably the CSR symbolic analysis)
    /// is never recomputed.
    backend_template: B,
    c: Vec<f64>,
    lanes: Vec<LaneCache>,
    groups: Vec<GroupCache<B>>,
    step_counter: u64,
    /// Bumped whenever a group slot is recycled; invalidates every
    /// lane's sticky group index (indices stay stable on append).
    groups_epoch: u64,
    /// Sticky shared-group assignment for the packed fast path:
    /// `(group index, groups_epoch, h_bits, lane-0 flow generation)`.
    packed_group: Option<(usize, u64, u64, u64)>,
    // ---- reusable workspaces ---------------------------------------
    sig_scratch: Vec<u64>,
    s_bound_scratch: Vec<f64>,
    rhs_block: Vec<f64>,
    x_block: Vec<f64>,
    acc: Vec<f64>,
    /// Lane indices ordered group-by-group for the current step.
    order: Vec<usize>,
    group_counts: Vec<usize>,
    group_offsets: Vec<usize>,
    group_cursor: Vec<usize>,
}

impl BatchSolver<AutoBackend> {
    /// Builds a batch solver for the template's topology with automatic
    /// dense/CSR backend selection (matching what
    /// [`TransientSolver::new`](crate::TransientSolver::new) would pick
    /// for the same network).
    #[must_use]
    pub fn new(template: &ThermalNetwork) -> Self {
        Self::with_backend(template)
    }
}

impl<B: SolverBackend + Clone> BatchSolver<B> {
    /// Builds a batch solver for the template's topology over an
    /// explicit backend.
    #[must_use]
    pub fn with_backend(template: &ThermalNetwork) -> Self {
        let n = template.state_count();
        let mut c = vec![0.0; n];
        template.capacitances_into(&mut c);
        Self {
            n,
            structure_hash: template.structure_hash(),
            backend_template: B::build(template),
            c,
            lanes: Vec::new(),
            groups: Vec::new(),
            step_counter: 0,
            groups_epoch: 0,
            packed_group: None,
            sig_scratch: Vec::new(),
            s_bound_scratch: vec![0.0; n],
            rhs_block: Vec::new(),
            x_block: Vec::new(),
            acc: Vec::new(),
            order: Vec::new(),
            group_counts: Vec::new(),
            group_offsets: Vec::new(),
            group_cursor: Vec::new(),
        }
    }

    /// Number of live shared factorizations (diagnostics: 1 while the
    /// whole fleet shares one `(dt, flow)` operating point).
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Advances every lane by `dt` with the implicit backward-Euler
    /// method, sharing one `(C + h·G)` factorization per `(dt, flow)`
    /// signature and back-substituting each group as a blocked
    /// multi-RHS solve.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when a factorization
    /// fails and [`ThermalError::Diverged`] when a lane produced a
    /// non-finite temperature.
    ///
    /// # Panics
    ///
    /// Panics when a lane's network is not structurally identical to
    /// the template (different
    /// [`structure_hash`](ThermalNetwork::structure_hash)) or a state
    /// has the wrong dimension.
    pub fn step(
        &mut self,
        lanes: &mut [BatchLane<'_>],
        dt: SimDuration,
    ) -> Result<(), ThermalError> {
        if dt.is_zero() || lanes.is_empty() {
            return Ok(());
        }
        let n = self.n;
        let h = dt.as_secs_f64();
        let h_bits = h.to_bits();
        self.step_counter += 1;

        if self.lanes.len() != lanes.len() {
            self.lanes.resize_with(lanes.len(), || LaneCache::new(n));
            self.rhs_block.resize(n * lanes.len(), 0.0);
            self.x_block.resize(n * lanes.len(), 0.0);
            self.acc.resize(lanes.len(), 0.0);
            self.order.resize(lanes.len(), 0);
        }

        // ---- per-lane refresh + group assignment --------------------
        for (idx, lane) in lanes.iter().enumerate() {
            assert_eq!(
                lane.net.structure_hash(),
                self.structure_hash,
                "lane network is not structurally identical to the batch template"
            );
            assert_eq!(
                lane.state.temps.len(),
                n,
                "lane state does not match the batch dimension"
            );
            let cache = &mut self.lanes[idx];
            // Source refresh, keyed like the scalar solver's caches.
            let cond_key = (lane.net.flow_generation(), lane.net.boundary_generation());
            let mut source_stale = false;
            if cache.cond_key != Some(cond_key) {
                lane.net.assemble_boundary_source_into(&mut cache.s_bound);
                cache.cond_key = Some(cond_key);
                source_stale = true;
            }
            let power_key = lane.net.power_generation();
            if cache.power_key != Some(power_key) {
                lane.net.assemble_power_into(&mut cache.s_power);
                cache.power_key = Some(power_key);
                source_stale = true;
            }
            if source_stale {
                for i in 0..n {
                    cache.s[i] = cache.s_power[i] + cache.s_bound[i];
                }
            }
            // Group assignment: sticky while the lane's flows, the
            // step size and the group table are unchanged, so
            // constant-flow stretches pay no signature work at all.
            let flow_gen = lane.net.flow_generation();
            let assignment_fresh = cache.group != usize::MAX
                && cache.group_flow_gen == flow_gen
                && cache.group_h_bits == h_bits
                && cache.group_epoch == self.groups_epoch
                && cache.group < self.groups.len();
            let group = if assignment_fresh {
                cache.group
            } else {
                self.sig_scratch.clear();
                lane.net.flow_signature_into(&mut self.sig_scratch);
                let group = match self
                    .groups
                    .iter()
                    .position(|g| g.key.0 == h_bits && g.key.1 == self.sig_scratch)
                {
                    Some(found) => found,
                    None => Self::create_group(
                        &mut self.groups,
                        &mut self.groups_epoch,
                        &self.backend_template,
                        &self.c,
                        &mut self.s_bound_scratch,
                        lane.net,
                        (h_bits, self.sig_scratch.clone()),
                        h,
                        self.step_counter,
                    )?,
                };
                let epoch = self.groups_epoch;
                let cache = &mut self.lanes[idx];
                cache.group = group;
                cache.group_flow_gen = flow_gen;
                cache.group_h_bits = h_bits;
                cache.group_epoch = epoch;
                group
            };
            // Mark the group as used *now*, before any later lane runs
            // `create_group`: the LRU recycler refuses current-step
            // groups, so an assignment made earlier in this loop can
            // never be silently repointed at a different flow's
            // factorization mid-step.
            self.groups[group].last_used = self.step_counter;
        }

        // ---- order lanes group-by-group (counting sort) -------------
        self.group_counts.clear();
        self.group_counts.resize(self.groups.len(), 0);
        for cache in &self.lanes[..lanes.len()] {
            self.group_counts[cache.group] += 1;
        }
        self.group_offsets.clear();
        let mut running = 0;
        for &count in &self.group_counts {
            self.group_offsets.push(running);
            running += count;
        }
        self.group_cursor.clear();
        self.group_cursor.extend_from_slice(&self.group_offsets);
        for (idx, cache) in self.lanes[..lanes.len()].iter().enumerate() {
            self.order[self.group_cursor[cache.group]] = idx;
            self.group_cursor[cache.group] += 1;
        }

        // ---- per-group blocked solve --------------------------------
        for (group_idx, (&start, &count)) in self
            .group_offsets
            .iter()
            .zip(&self.group_counts)
            .enumerate()
        {
            if count == 0 {
                continue;
            }
            let members = &self.order[start..start + count];
            let batch = count;
            let rhs = &mut self.rhs_block[..n * batch];
            for (b, &lane_idx) in members.iter().enumerate() {
                let temps = &lanes[lane_idx].state.temps;
                let s = &self.lanes[lane_idx].s;
                for i in 0..n {
                    rhs[i * batch + b] = self.c[i] * temps[i] + h * s[i];
                }
            }
            let group = &mut self.groups[group_idx];
            group.last_used = self.step_counter;
            let x = &mut self.x_block[..n * batch];
            group
                .backend
                .solve_be_block_into(rhs, x, batch, &mut self.acc[..batch])?;
            for (b, &lane_idx) in members.iter().enumerate() {
                let temps = &mut lanes[lane_idx].state.temps;
                for i in 0..n {
                    temps[i] = x[i * batch + b];
                }
                if let Some(bad) = temps.iter().position(|t| !t.is_finite()) {
                    return Err(ThermalError::Diverged {
                        name: lanes[lane_idx].net.slot_name(bad).to_owned(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Advances every packed lane by `dt` with the implicit
    /// backward-Euler method through one shared factorization — the
    /// homogeneous-flow fast path.
    ///
    /// `nets[lane]` provides each lane's inputs (powers, boundary
    /// temperatures, generations); all lanes must currently hold the
    /// same flow values (identical fan commands — the common fleet
    /// regime). Temperatures advance inside `packed`'s slot-major
    /// block, so the whole step — right-hand-side build, blocked
    /// substitution, divergence check — runs over contiguous memory
    /// with no per-lane gather/scatter. Results are bit-identical to
    /// [`BatchSolver::step`] on the same inputs.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::MixedBatchSignatures`] when lane flows
    /// have diverged (step such fleets through the per-lane API),
    /// [`ThermalError::SingularSystem`] when the factorization fails
    /// and [`ThermalError::Diverged`] on a non-finite temperature.
    ///
    /// # Panics
    ///
    /// Panics when `nets` does not match the packed batch shape or a
    /// network is not structurally identical to the template.
    pub fn step_packed<N: Borrow<ThermalNetwork>>(
        &mut self,
        nets: &[N],
        packed: &mut PackedLanes,
        dt: SimDuration,
    ) -> Result<(), ThermalError> {
        if dt.is_zero() || nets.is_empty() {
            return Ok(());
        }
        let n = self.n;
        let batch = packed.batch;
        assert_eq!(
            nets.len(),
            batch,
            "network count must match the packed batch"
        );
        assert_eq!(packed.n, n, "packed dimension must match the template");
        let h = dt.as_secs_f64();

        // ---- per-lane source refresh (lane-major, change-driven) ----
        let flows_moved = packed.refresh_sources(|lane| nets[lane].borrow(), self.structure_hash);

        // ---- homogeneity + shared factorization ---------------------
        if flows_moved || !packed.homogeneous {
            if !self.flows_homogeneous(|lane| nets[lane].borrow(), batch) {
                packed.homogeneous = false;
                return Err(ThermalError::MixedBatchSignatures);
            }
            packed.homogeneous = true;
            self.packed_group = None;
        }
        let group_idx = self.ensure_shared_group(nets[0].borrow(), h)?;

        // ---- contiguous rhs build + blocked solve -------------------
        packed.solve_be_block(&self.groups[group_idx].backend, &self.c, h, |lane| {
            nets[lane].borrow()
        })
    }

    /// `true` when the first `count` lanes all carry the same flow
    /// values (the shared-factorization precondition of the packed
    /// paths). A network with no flow channels has an empty signature:
    /// trivially homogeneous.
    pub(crate) fn flows_homogeneous<'n, F>(&mut self, net_of: F, count: usize) -> bool
    where
        F: Fn(usize) -> &'n ThermalNetwork,
    {
        self.sig_scratch.clear();
        net_of(0).flow_signature_into(&mut self.sig_scratch);
        let reference_len = self.sig_scratch.len();
        if reference_len == 0 {
            return true;
        }
        for lane in 1..count {
            net_of(lane).flow_signature_into(&mut self.sig_scratch);
        }
        let (reference, rest) = self.sig_scratch.split_at(reference_len);
        rest.chunks(reference_len).all(|sig| sig == reference)
    }

    /// Resolves the one shared factorization every homogeneous lane
    /// steps through: sticky while `(dt, representative flow
    /// generation, group table epoch)` are unchanged, otherwise a
    /// signature lookup and — on miss — a fresh factorization from the
    /// representative network. Bumps the step counter and the group's
    /// LRU stamp.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when the factorization
    /// fails.
    pub(crate) fn ensure_shared_group(
        &mut self,
        representative: &ThermalNetwork,
        h: f64,
    ) -> Result<usize, ThermalError> {
        let h_bits = h.to_bits();
        self.step_counter += 1;
        let sticky = self.packed_group.and_then(|(idx, epoch, hb, fg)| {
            (epoch == self.groups_epoch
                && hb == h_bits
                && fg == representative.flow_generation()
                && idx < self.groups.len())
            .then_some(idx)
        });
        let group_idx = match sticky {
            Some(idx) => idx,
            None => {
                self.sig_scratch.clear();
                representative.flow_signature_into(&mut self.sig_scratch);
                let found = self
                    .groups
                    .iter()
                    .position(|g| g.key.0 == h_bits && g.key.1 == self.sig_scratch);
                let idx = match found {
                    Some(idx) => idx,
                    None => Self::create_group(
                        &mut self.groups,
                        &mut self.groups_epoch,
                        &self.backend_template,
                        &self.c,
                        &mut self.s_bound_scratch,
                        representative,
                        (h_bits, self.sig_scratch.clone()),
                        h,
                        self.step_counter,
                    )?,
                };
                self.packed_group = Some((
                    idx,
                    self.groups_epoch,
                    h_bits,
                    representative.flow_generation(),
                ));
                idx
            }
        };
        self.groups[group_idx].last_used = self.step_counter;
        Ok(group_idx)
    }

    /// The backend (with its cached `(C + h·G)` factors) behind a group
    /// index from [`Self::ensure_shared_group`] — read-only, so shard
    /// workers can solve through it concurrently.
    pub(crate) fn group_backend(&self, idx: usize) -> &B {
        &self.groups[idx].backend
    }

    /// The per-slot capacitances of the template topology.
    pub(crate) fn capacitances(&self) -> &[f64] {
        &self.c
    }

    /// The template's structural fingerprint
    /// ([`ThermalNetwork::structure_hash`]); every lane must match it.
    #[must_use]
    pub fn template_structure_hash(&self) -> u64 {
        self.structure_hash
    }

    /// Creates (or recycles, past [`MAX_GROUPS`]) a group: clones the
    /// prebuilt backend template (keeping e.g. the CSR symbolic
    /// analysis instead of recomputing it), assembles `G` from the
    /// representative network and factors `(C + h·G)`. Returns the
    /// group index; a failed factorization is not cached (the next
    /// attempt retries).
    ///
    /// Only groups *not* used in the current step are eligible for
    /// recycling — a group some lane was already assigned to this step
    /// must keep its factorization until the step's solves are done.
    /// When every cached group is current (more distinct signatures
    /// than [`MAX_GROUPS`] in one step), the table grows past the cap
    /// instead.
    #[allow(clippy::too_many_arguments)]
    fn create_group(
        groups: &mut Vec<GroupCache<B>>,
        groups_epoch: &mut u64,
        backend_template: &B,
        c: &[f64],
        s_bound_scratch: &mut [f64],
        net: &ThermalNetwork,
        key: (u64, Vec<u64>),
        h: f64,
        step_counter: u64,
    ) -> Result<usize, ThermalError> {
        let mut backend = backend_template.clone();
        backend.assemble_conductance(net, s_bound_scratch);
        backend.factor_be(c, h)?;
        let entry = GroupCache {
            key,
            backend,
            last_used: step_counter,
        };
        let recyclable = if groups.len() >= MAX_GROUPS {
            groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.last_used != step_counter)
                .min_by_key(|(_, g)| g.last_used)
                .map(|(i, _)| i)
        } else {
            None
        };
        let slot = if let Some(lru) = recyclable {
            // Recycling changes what an index means: invalidate every
            // lane's sticky assignment.
            *groups_epoch += 1;
            groups[lru] = entry;
            lru
        } else {
            groups.push(entry);
            groups.len() - 1
        };
        Ok(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DenseBackend;
    use crate::network::{Coupling, ThermalNetworkBuilder};
    use crate::stepper::TransientSolver;
    use leakctl_units::{AirFlow, Celsius, ThermalCapacitance, ThermalConductance, Watts};

    /// Builds one instance of a small server-shaped network.
    fn build_instance() -> (
        ThermalNetwork,
        crate::NodeId,
        crate::NodeId,
        crate::FlowChannelId,
    ) {
        let mut b = ThermalNetworkBuilder::new();
        let die = b.add_node("die", ThermalCapacitance::new(80.0));
        let sink = b.add_node("sink", ThermalCapacitance::new(400.0));
        let amb = b.add_boundary("ambient", Celsius::new(24.0));
        b.connect(
            die,
            sink,
            Coupling::Conductance(ThermalConductance::new(10.0)),
        )
        .unwrap();
        let ch = b.add_flow_channel("chassis");
        let model = crate::ConvectionModel::turbulent(
            ThermalConductance::new(3.4),
            AirFlow::from_cfm(300.0),
        );
        b.connect(sink, amb, Coupling::Convective { channel: ch, model })
            .unwrap();
        let mut net = b.build().unwrap();
        net.set_flow(ch, AirFlow::from_cfm(250.0)).unwrap();
        (net, die, amb, ch)
    }

    #[test]
    fn batched_lanes_bit_identical_to_scalar_solvers() {
        let count = 5;
        let mut nets = Vec::new();
        let mut dies = Vec::new();
        let mut channels = Vec::new();
        for i in 0..count {
            let (mut net, die, _, ch) = build_instance();
            net.set_power(die, Watts::new(40.0 + 15.0 * i as f64))
                .unwrap();
            nets.push(net);
            dies.push(die);
            channels.push(ch);
        }
        let mut batch = BatchSolver::<DenseBackend>::with_backend(&nets[0]);
        let mut batch_states: Vec<_> = nets
            .iter()
            .map(|n| n.uniform_state(Celsius::new(24.0)))
            .collect();
        let mut scalar_solvers: Vec<_> = nets
            .iter()
            .map(TransientSolver::<DenseBackend>::with_backend)
            .collect();
        let mut scalar_states: Vec<_> = nets
            .iter()
            .map(|n| n.uniform_state(Celsius::new(24.0)))
            .collect();
        let dt = SimDuration::from_secs(1);
        for step in 0..200 {
            // Mid-run divergence: one lane changes flow (splitting the
            // group), another changes power (RHS only).
            if step == 60 {
                nets[1]
                    .set_flow(channels[1], AirFlow::from_cfm(420.0))
                    .unwrap();
            }
            if step == 120 {
                nets[3].set_power(dies[3], Watts::new(140.0)).unwrap();
            }
            let mut lanes: Vec<BatchLane<'_>> = nets
                .iter()
                .zip(batch_states.iter_mut())
                .map(|(net, state)| BatchLane { net, state })
                .collect();
            batch.step(&mut lanes, dt).unwrap();
            for ((solver, net), state) in scalar_solvers
                .iter_mut()
                .zip(&nets)
                .zip(scalar_states.iter_mut())
            {
                solver.step(net, state, dt).unwrap();
            }
        }
        assert_eq!(batch.group_count(), 2, "flow divergence splits groups");
        for (lane, (bs, ss)) in batch_states.iter().zip(&scalar_states).enumerate() {
            for (i, (a, b)) in bs.temps.iter().zip(&ss.temps).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "lane {lane} slot {i}: batch {a} vs scalar {b}"
                );
            }
        }
    }

    #[test]
    fn per_lane_boundaries_stay_independent() {
        let (net_a, _, amb_a, _) = build_instance();
        let (mut net_b, _, _, _) = build_instance();
        let mut net_a = net_a;
        net_a.set_boundary(amb_a, Celsius::new(40.0)).unwrap();
        let _ = &mut net_b;
        let mut solver = BatchSolver::new(&net_a);
        let mut sa = net_a.uniform_state(Celsius::new(24.0));
        let mut sb = net_b.uniform_state(Celsius::new(24.0));
        for _ in 0..1800 {
            let mut lanes = [
                BatchLane {
                    net: &net_a,
                    state: &mut sa,
                },
                BatchLane {
                    net: &net_b,
                    state: &mut sb,
                },
            ];
            solver.step(&mut lanes, SimDuration::from_secs(1)).unwrap();
        }
        // Same flows — one shared factorization — but the hot-inlet
        // lane settles 16 K above the cool one.
        assert_eq!(solver.group_count(), 1);
        assert!(sa.temps[0] - sb.temps[0] > 15.0);
    }

    #[test]
    #[should_panic(expected = "structurally identical")]
    fn foreign_topology_rejected() {
        let (net, _, _, _) = build_instance();
        let mut b = ThermalNetworkBuilder::new();
        let n0 = b.add_node("other", ThermalCapacitance::new(5.0));
        let amb = b.add_boundary("amb", Celsius::new(24.0));
        b.connect(n0, amb, Coupling::Conductance(ThermalConductance::new(1.0)))
            .unwrap();
        let other = b.build().unwrap();
        let mut solver = BatchSolver::new(&net);
        let mut state = other.uniform_state(Celsius::new(24.0));
        let mut lanes = [BatchLane {
            net: &other,
            state: &mut state,
        }];
        let _ = solver.step(&mut lanes, SimDuration::from_secs(1));
    }

    #[test]
    fn zero_dt_and_empty_batch_are_noops() {
        let (net, _, _, _) = build_instance();
        let mut solver = BatchSolver::new(&net);
        let mut state = net.uniform_state(Celsius::new(24.0));
        solver
            .step(
                &mut [BatchLane {
                    net: &net,
                    state: &mut state,
                }],
                SimDuration::ZERO,
            )
            .unwrap();
        assert_eq!(state.temps[0], 24.0);
        solver.step(&mut [], SimDuration::from_secs(1)).unwrap();
        assert_eq!(solver.group_count(), 0);
    }

    #[test]
    fn packed_path_bit_identical_to_lane_api() {
        let count = 6;
        let mut nets = Vec::new();
        let mut dies = Vec::new();
        for i in 0..count {
            let (mut net, die, _, _) = build_instance();
            net.set_power(die, Watts::new(30.0 + 10.0 * i as f64))
                .unwrap();
            nets.push(net);
            dies.push(die);
        }
        let mut lane_solver = BatchSolver::new(&nets[0]);
        let mut lane_states: Vec<_> = nets
            .iter()
            .map(|n| n.uniform_state(Celsius::new(24.0)))
            .collect();
        let mut packed_solver = BatchSolver::new(&nets[0]);
        let mut packed = PackedLanes::pack(&lane_states);
        assert_eq!(packed.batch(), count);
        assert_eq!(packed.dimension(), nets[0].state_count());
        let dt = SimDuration::from_secs(1);
        for step in 0..150 {
            if step == 50 {
                // Power changes flow through both paths identically.
                nets[2].set_power(dies[2], Watts::new(120.0)).unwrap();
            }
            let mut lanes: Vec<BatchLane<'_>> = nets
                .iter()
                .zip(lane_states.iter_mut())
                .map(|(net, state)| BatchLane { net, state })
                .collect();
            lane_solver.step(&mut lanes, dt).unwrap();
            packed_solver.step_packed(&nets, &mut packed, dt).unwrap();
        }
        let mut unpacked: Vec<_> = nets
            .iter()
            .map(|n| n.uniform_state(Celsius::new(0.0)))
            .collect();
        packed.unpack_into(&mut unpacked);
        for (lane, (a, b)) in unpacked.iter().zip(&lane_states).enumerate() {
            for (i, (x, y)) in a.temps.iter().zip(&b.temps).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "lane {lane} slot {i}: packed {x} vs lane-api {y}"
                );
            }
        }
        assert!(packed.max_temperature() > 24.0);
    }

    #[test]
    fn packed_path_handles_channel_free_networks() {
        // Pure-conduction topology: no flow channels, empty flow
        // signature — trivially homogeneous, must step rather than
        // panic.
        let build = || {
            let mut b = ThermalNetworkBuilder::new();
            let die = b.add_node("die", ThermalCapacitance::new(100.0));
            let amb = b.add_boundary("amb", Celsius::new(24.0));
            b.connect(
                die,
                amb,
                Coupling::Conductance(ThermalConductance::new(2.0)),
            )
            .unwrap();
            (b.build().unwrap(), die)
        };
        let (mut a, die_a) = build();
        let (b, _) = build();
        a.set_power(die_a, Watts::new(100.0)).unwrap();
        let states = [
            a.uniform_state(Celsius::new(24.0)),
            b.uniform_state(Celsius::new(24.0)),
        ];
        let mut packed = PackedLanes::pack(&states);
        let mut solver = BatchSolver::new(&a);
        let nets = vec![a, b];
        for _ in 0..600 {
            solver
                .step_packed(&nets, &mut packed, SimDuration::from_secs(1))
                .unwrap();
        }
        // Powered lane heads to 74 °C, unpowered stays ambient.
        assert!((packed.max_temperature() - 74.0).abs() < 0.5);
    }

    #[test]
    fn packed_path_rejects_diverged_flows() {
        let (net_a, _, _, _) = build_instance();
        let (mut net_b, _, _, ch_b) = build_instance();
        net_b.set_flow(ch_b, AirFlow::from_cfm(500.0)).unwrap();
        let states = [
            net_a.uniform_state(Celsius::new(24.0)),
            net_b.uniform_state(Celsius::new(24.0)),
        ];
        let mut packed = PackedLanes::pack(&states);
        let mut solver = BatchSolver::new(&net_a);
        let nets = vec![net_a, net_b];
        assert_eq!(
            solver.step_packed(&nets, &mut packed, SimDuration::from_secs(1)),
            Err(ThermalError::MixedBatchSignatures)
        );
    }

    #[test]
    fn more_groups_than_cache_cap_in_one_step_stays_correct() {
        // Every lane gets a distinct flow ⇒ more groups than
        // MAX_GROUPS must coexist within one step. The LRU recycler
        // must not evict a group some earlier lane of the same step is
        // already assigned to — each lane stays bit-identical to its
        // scalar solver.
        let count = MAX_GROUPS + 2;
        let mut nets = Vec::new();
        for i in 0..count {
            let (mut net, die, _, ch) = build_instance();
            net.set_flow(ch, AirFlow::from_cfm(120.0 + i as f64))
                .unwrap();
            net.set_power(die, Watts::new(50.0 + i as f64)).unwrap();
            nets.push(net);
        }
        let mut batch = BatchSolver::<DenseBackend>::with_backend(&nets[0]);
        let mut batch_states: Vec<_> = nets
            .iter()
            .map(|n| n.uniform_state(Celsius::new(24.0)))
            .collect();
        let mut scalar: Vec<_> = nets
            .iter()
            .map(|n| {
                (
                    TransientSolver::<DenseBackend>::with_backend(n),
                    n.uniform_state(Celsius::new(24.0)),
                )
            })
            .collect();
        let dt = SimDuration::from_secs(1);
        for _ in 0..5 {
            let mut lanes: Vec<BatchLane<'_>> = nets
                .iter()
                .zip(batch_states.iter_mut())
                .map(|(net, state)| BatchLane { net, state })
                .collect();
            batch.step(&mut lanes, dt).unwrap();
            for (net, (solver, state)) in nets.iter().zip(scalar.iter_mut()) {
                solver.step(net, state, dt).unwrap();
            }
        }
        assert!(batch.group_count() >= count, "no current-step eviction");
        for (lane, (bs, (_, ss))) in batch_states.iter().zip(&scalar).enumerate() {
            for (i, (a, b)) in bs.temps.iter().zip(&ss.temps).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "lane {lane} slot {i}");
            }
        }
    }

    #[test]
    fn group_cache_recycles_under_flow_churn() {
        let (mut net, die, _, ch) = build_instance();
        net.set_power(die, Watts::new(60.0)).unwrap();
        let mut solver = BatchSolver::new(&net);
        let mut state = net.uniform_state(Celsius::new(24.0));
        // A long slew: every step a fresh flow signature.
        for step in 0..(MAX_GROUPS + 20) {
            net.set_flow(ch, AirFlow::from_cfm(100.0 + step as f64))
                .unwrap();
            let mut lanes = [BatchLane {
                net: &net,
                state: &mut state,
            }];
            solver.step(&mut lanes, SimDuration::from_secs(1)).unwrap();
        }
        assert!(solver.group_count() <= MAX_GROUPS);
        assert!(state.is_finite());
    }
}
