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
//! [`BatchSolver`] shares that work. Each distinct `(dt, flow-values)`
//! signature factors `(C + h·G)` once and back-substitutes all its
//! lanes as one slot-major blocked multi-RHS solve whose inner loops
//! run over contiguous lanes and vectorize. Lanes reach the factors in
//! one of two ways:
//!
//! - [`BatchSolver::step`] takes per-lane network/state pairs, groups
//!   them by signature and reads each lane's power injections and
//!   boundary temperatures from its own network, cached per lane on
//!   the network's invalidation generations. Flows may diverge freely.
//! - [`BatchSolver::prepare_shared`] serves lanes that all hold one
//!   template network's flows and boundary temperatures (a fleet's
//!   servers on a common inlet and fan flow): it returns a
//!   [`SharedKernel`] that steps [`PackedLanes`] blocks — temperatures
//!   resident slot-major between steps — from caller-supplied power
//!   blocks and the template's one boundary source, reading no lane
//!   network. [`BatchSolver::lanes_homogeneous`] tells when a group's
//!   flows agree.
//!
//! Every lane's arithmetic is bit-identical to stepping it alone
//! through a `TransientSolver` with the same backend: assembly,
//! factorization and the per-lane accumulation order of the block
//! substitution all match the scalar path exactly. A fleet of one
//! therefore reproduces the single-server trajectory to the last bit.

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

/// Slot-major packed lane temperatures for [`SharedKernel::step_shard`]:
/// an `n × batch` block (`[slot * batch + lane]`) that persists across
/// steps, so the per-step right-hand-side build, solve and divergence
/// check all run over contiguous memory with no per-lane gather or
/// scatter. Trajectories are bit-identical to the per-lane
/// [`BatchSolver::step`] API (and therefore to scalar stepping).
///
/// Pack once with [`PackedLanes::pack`], step many times, and
/// [`PackedLanes::unpack_lane_into`] whenever a lane's
/// [`ThermalState`] is needed again.
#[derive(Debug, Clone)]
pub struct PackedLanes {
    n: usize,
    batch: usize,
    /// Temperatures, `temps[slot * batch + lane]`.
    temps: Vec<f64>,
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
            rhs: vec![0.0; n * batch],
            acc: vec![0.0; batch],
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
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

    /// Builds the backward-Euler right-hand side `C·T + h·(p + b)` for
    /// every lane — `powers` is the slot-major (`[slot * batch + lane]`)
    /// power injection of every lane and `bound` the boundary source
    /// every lane shares — and solves the block through `backend`'s
    /// cached `(C + h·G)` factors, advancing the packed temperatures in
    /// place. The source is `power + bound`, the operands of a scalar
    /// solve's `s = s_power + s_bound` in the same order, so per-lane
    /// arithmetic is bit-identical to it.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when the backend holds
    /// no valid factors and [`ThermalError::Diverged`] (named through
    /// `names`) on a non-finite result.
    fn solve_be_block<B: SolverBackend>(
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

/// The per-step solve context for lanes that share a template network's
/// flows and boundary temperatures, from
/// [`BatchSolver::prepare_shared`]: the shared factorization, the
/// capacitances, the step size and the one boundary source of the
/// group. Each lane's power injection comes from the caller.
///
/// The context is read-only, so shard workers step their
/// [`PackedLanes`] blocks through it concurrently.
#[derive(Debug)]
pub struct SharedKernel<'a, B: SolverBackend> {
    backend: &'a B,
    c: &'a [f64],
    h: f64,
    bound: &'a [f64],
    template: &'a ThermalNetwork,
}

impl<B: SolverBackend> SharedKernel<'_, B> {
    /// Advances one shard by the prepared step: builds the right-hand
    /// side from the packed temperatures, the caller's `powers`
    /// (slot-major, `[slot * shard.batch() + lane]`) and the shared
    /// boundary source, then back-substitutes through the shared
    /// factors. Bit-identical to [`BatchSolver::step`] over lane
    /// networks holding the same powers, flows and boundaries.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when no valid factors
    /// are held and [`ThermalError::Diverged`] on a non-finite
    /// temperature.
    ///
    /// # Panics
    ///
    /// Panics when `powers` does not match the shard's shape.
    pub fn step_shard(&self, shard: &mut PackedLanes, powers: &[f64]) -> Result<(), ThermalError> {
        shard.solve_be_block(
            self.backend,
            self.c,
            self.h,
            powers,
            self.bound,
            self.template,
        )
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
/// shared factorization). While the lanes' flows agree,
/// [`BatchSolver::prepare_shared`] steps them from packed blocks
/// instead, through the same factorization cache.
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
    /// Sticky group of [`Self::prepare_shared`]:
    /// `(group index, groups_epoch, h_bits, template flow generation)`.
    shared_group: Option<(usize, u64, u64, u64)>,
    /// Flow generation seen per lane at the last
    /// [`Self::lanes_homogeneous`] check.
    flow_gens: Vec<u64>,
    /// `true` while every lane is known to share the reference flow
    /// signature.
    homogeneous: bool,
    // ---- reusable workspaces ---------------------------------------
    sig_scratch: Vec<u64>,
    /// Boundary-source workspace: group creation assembles into it, and
    /// [`Self::prepare_shared`] hands its kernel the template's.
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
            shared_group: None,
            flow_gens: Vec::new(),
            homogeneous: false,
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

    /// `true` when the first `count` lane networks all carry the same
    /// flow values — the precondition of [`Self::prepare_shared`]. A
    /// network with no flow channels has an empty signature: trivially
    /// homogeneous. The check is change-driven: it re-compares
    /// signatures only after some lane's flow generation moved.
    pub fn lanes_homogeneous<'n, F>(&mut self, net_of: F, count: usize) -> bool
    where
        F: Fn(usize) -> &'n ThermalNetwork,
    {
        if self.flow_gens.len() != count {
            self.flow_gens.clear();
            self.flow_gens.resize(count, 0);
            self.homogeneous = false;
        }
        let mut moved = false;
        for (lane, gen) in self.flow_gens.iter_mut().enumerate() {
            let g = net_of(lane).flow_generation();
            if *gen != g {
                *gen = g;
                moved = true;
            }
        }
        if moved || !self.homogeneous {
            self.sig_scratch.clear();
            net_of(0).flow_signature_into(&mut self.sig_scratch);
            let reference_len = self.sig_scratch.len();
            for lane in 1..count {
                net_of(lane).flow_signature_into(&mut self.sig_scratch);
            }
            let (reference, rest) = self.sig_scratch.split_at(reference_len);
            self.homogeneous =
                reference_len == 0 || rest.chunks(reference_len).all(|sig| sig == reference);
        }
        self.homogeneous
    }

    /// Serial phase of a step for lanes that all hold `template`'s
    /// flows and boundary temperatures (the caller guarantees it, for
    /// instance servers sharing one inlet and one delivered fan flow):
    /// resolves the shared factorization from `template` and assembles
    /// the one boundary source every lane shares. No lane network is
    /// read. The returned [`SharedKernel`] then steps each shard's
    /// [`PackedLanes`] block.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when the factorization
    /// fails.
    ///
    /// # Panics
    ///
    /// Panics when `template` is not structurally identical to the
    /// solver's template.
    pub fn prepare_shared<'s>(
        &'s mut self,
        template: &'s ThermalNetwork,
        dt: SimDuration,
    ) -> Result<SharedKernel<'s, B>, ThermalError> {
        assert_eq!(
            template.structure_hash(),
            self.structure_hash,
            "template network is not structurally identical to the batch template"
        );
        let h = dt.as_secs_f64();
        let group = self.ensure_shared_group(template, h)?;
        template.assemble_boundary_source_into(&mut self.s_bound_scratch);
        Ok(SharedKernel {
            backend: &self.groups[group].backend,
            c: &self.c,
            h,
            bound: &self.s_bound_scratch,
            template,
        })
    }

    /// Resolves the one shared factorization [`Self::prepare_shared`]
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
    fn ensure_shared_group(
        &mut self,
        representative: &ThermalNetwork,
        h: f64,
    ) -> Result<usize, ThermalError> {
        let h_bits = h.to_bits();
        self.step_counter += 1;
        let sticky = self.shared_group.and_then(|(idx, epoch, hb, fg)| {
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
                self.shared_group = Some((
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
pub(crate) mod tests {
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

    /// The lanes' power injections as one slot-major block
    /// (`[slot * lanes + lane]`), the layout [`SharedKernel`] reads.
    pub(crate) fn power_block(nets: &[ThermalNetwork]) -> Vec<f64> {
        let n = nets[0].state_count();
        let mut lane_powers = vec![0.0; n];
        let mut block = vec![0.0; n * nets.len()];
        for (lane, net) in nets.iter().enumerate() {
            net.assemble_power_into(&mut lane_powers);
            for (slot, &p) in lane_powers.iter().enumerate() {
                block[slot * nets.len() + lane] = p;
            }
        }
        block
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
            assert!(packed_solver.lanes_homogeneous(|i| &nets[i], count));
            let powers = power_block(&nets);
            let kernel = packed_solver.prepare_shared(&nets[0], dt).unwrap();
            kernel.step_shard(&mut packed, &powers).unwrap();
        }
        assert_eq!(packed_solver.group_count(), 1);
        let mut unpacked = nets[0].uniform_state(Celsius::new(0.0));
        for (lane, want) in lane_states.iter().enumerate() {
            packed.unpack_lane_into(lane, &mut unpacked);
            for (i, (x, y)) in unpacked.temps.iter().zip(&want.temps).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "lane {lane} slot {i}: packed {x} vs lane-api {y}"
                );
                assert_eq!(
                    packed.temperatures()[i * count + lane].to_bits(),
                    x.to_bits()
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
        assert!(solver.lanes_homogeneous(|i| &nets[i], nets.len()));
        let powers = power_block(&nets);
        for _ in 0..600 {
            let kernel = solver
                .prepare_shared(&nets[0], SimDuration::from_secs(1))
                .unwrap();
            kernel.step_shard(&mut packed, &powers).unwrap();
        }
        // Powered lane heads to 74 °C, unpowered stays ambient.
        assert!((packed.max_temperature() - 74.0).abs() < 0.5);
    }

    #[test]
    fn packed_path_rejects_diverged_flows() {
        let (net_a, _, _, _) = build_instance();
        let (mut net_b, _, _, ch_b) = build_instance();
        net_b.set_flow(ch_b, AirFlow::from_cfm(500.0)).unwrap();
        let mut solver = BatchSolver::new(&net_a);
        let nets = [net_a, net_b];
        assert!(!solver.lanes_homogeneous(|i| &nets[i], 2));
        // One lane on its own agrees with itself.
        assert!(solver.lanes_homogeneous(|i| &nets[i], 1));
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
