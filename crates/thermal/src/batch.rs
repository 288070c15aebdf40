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
//! run over contiguous lanes and vectorize. Lanes reach the factors one
//! way: [`BatchSolver::prepare_shared`] takes a template network that
//! holds the lanes' flows and boundary temperatures (a fleet's servers
//! on a common inlet and fan flow) and returns a [`SharedKernel`] that
//! steps [`PackedLanes`] blocks — temperatures resident slot-major
//! between steps — from caller-supplied power blocks and the template's
//! one boundary source, reading no lane network. Lanes whose flows
//! differ solve one flow class at a time: set the template to the
//! class's flow, prepare, and step only that class's lanes with
//! [`SharedKernel::step_lanes`].
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

/// Slot-major packed lane temperatures for [`SharedKernel::step_shard`]:
/// an `n × batch` block (`[slot * batch + lane]`) that persists across
/// steps, so the per-step right-hand-side build, solve and divergence
/// check all run over contiguous memory with no per-lane gather or
/// scatter. Every lane's trajectory is bit-identical to scalar
/// stepping through a [`TransientSolver`](crate::TransientSolver).
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
    /// factors. Bit-identical to a scalar
    /// [`TransientSolver`](crate::TransientSolver) step of each lane's
    /// network holding the same power, flows and boundaries.
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

    /// Advances only `lanes` (distinct lane indices of `shard`) by the
    /// prepared step — one flow class of a shard whose lanes' flows
    /// diverged. Their temperatures and `powers` columns are gathered
    /// into a block of their own, stepped as [`Self::step_shard`] steps
    /// a shard, and scattered back; every other lane is untouched. Each
    /// lane's arithmetic is the same as in a whole-shard step.
    ///
    /// # Errors
    ///
    /// As [`Self::step_shard`]; on error `shard` is left as it was.
    ///
    /// # Panics
    ///
    /// Panics when `powers` does not match the shard's shape or a lane
    /// is out of range.
    pub fn step_lanes(
        &self,
        shard: &mut PackedLanes,
        powers: &[f64],
        lanes: &[usize],
    ) -> Result<(), ThermalError> {
        let (n, batch, width) = (shard.n, shard.batch, lanes.len());
        assert_eq!(powers.len(), n * batch, "power block shape");
        if lanes.is_empty() {
            return Ok(());
        }
        let mut block = PackedLanes {
            n,
            batch: width,
            temps: vec![0.0; n * width],
            rhs: vec![0.0; n * width],
            acc: vec![0.0; width],
        };
        let mut block_powers = vec![0.0; n * width];
        for slot in 0..n {
            for (column, &lane) in lanes.iter().enumerate() {
                block.temps[slot * width + column] = shard.temps[slot * batch + lane];
                block_powers[slot * width + column] = powers[slot * batch + lane];
            }
        }
        self.step_shard(&mut block, &block_powers)?;
        for slot in 0..n {
            for (column, &lane) in lanes.iter().enumerate() {
                shard.temps[slot * batch + lane] = block.temps[slot * width + column];
            }
        }
        Ok(())
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
/// Build it from any network of the target topology (only its structure
/// and capacitances are read). Each step, set a template network to the
/// lanes' common flows and boundary temperatures and call
/// [`BatchSolver::prepare_shared`]; the returned [`SharedKernel`] steps
/// packed lane blocks from per-lane power injections. Lanes whose flows
/// differ step one flow class at a time through
/// [`SharedKernel::step_lanes`], each class through its own cached
/// factorization.
///
/// # Example
///
/// ```
/// use leakctl_thermal::{BatchSolver, Coupling, PackedLanes, ThermalNetworkBuilder};
/// use leakctl_units::{Celsius, SimDuration, ThermalCapacitance, ThermalConductance};
///
/// # fn main() -> Result<(), leakctl_thermal::ThermalError> {
/// let mut b = ThermalNetworkBuilder::new();
/// let die = b.add_node("die", ThermalCapacitance::new(120.0));
/// let amb = b.add_boundary("ambient", Celsius::new(24.0));
/// b.connect(die, amb, Coupling::Conductance(ThermalConductance::new(2.0)))?;
/// let template = b.build()?;
///
/// // Two lanes of the template's topology, packed slot-major, drawing
/// // 50 W and 100 W into the die (`powers[slot * lanes + lane]`).
/// let start = template.uniform_state(Celsius::new(24.0));
/// let mut lanes = PackedLanes::pack(&[start.clone(), start]);
/// let powers = [50.0, 100.0];
///
/// let mut solver = BatchSolver::new(&template);
/// for _ in 0..600 {
///     let kernel = solver.prepare_shared(&template, SimDuration::from_secs(1))?;
///     kernel.step_shard(&mut lanes, &powers)?;
/// }
/// // Twice the power, twice the rise — through one factorization.
/// let die_temps = lanes.temperatures();
/// assert!((die_temps[0] - 49.0).abs() < 0.5);
/// assert!((die_temps[1] - 74.0).abs() < 0.5);
/// assert_eq!(solver.group_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchSolver<B: SolverBackend = AutoBackend> {
    structure_hash: u64,
    /// Pristine backend built once from the template: cloned per group
    /// so shared immutable setup (notably the CSR symbolic analysis)
    /// is never recomputed.
    backend_template: B,
    c: Vec<f64>,
    groups: Vec<GroupCache<B>>,
    step_counter: u64,
    /// Bumped whenever a group slot is recycled; invalidates the sticky
    /// group index (indices stay stable on append).
    groups_epoch: u64,
    /// Sticky group of [`Self::prepare_shared`]:
    /// `(group index, groups_epoch, h_bits, template flow generation)`.
    shared_group: Option<(usize, u64, u64, u64)>,
    // ---- reusable workspaces ---------------------------------------
    sig_scratch: Vec<u64>,
    /// Boundary-source workspace: group creation assembles into it, and
    /// [`Self::prepare_shared`] hands its kernel the template's.
    s_bound_scratch: Vec<f64>,
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
            structure_hash: template.structure_hash(),
            backend_template: B::build(template),
            c,
            groups: Vec::new(),
            step_counter: 0,
            groups_epoch: 0,
            shared_group: None,
            sig_scratch: Vec::new(),
            s_bound_scratch: vec![0.0; n],
        }
    }

    /// Number of live shared factorizations (diagnostics: 1 while the
    /// whole fleet shares one `(dt, flow)` operating point).
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Serial phase of a step for lanes that all hold `template`'s
    /// flows and boundary temperatures (the caller guarantees it, for
    /// instance servers sharing one inlet and one delivered fan flow):
    /// resolves the shared factorization from `template` and assembles
    /// the one boundary source every lane shares. No lane network is
    /// read. The returned [`SharedKernel`] then steps each shard's
    /// [`PackedLanes`] block, or one flow class's lanes of it.
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
                    None => {
                        let key = (h_bits, self.sig_scratch.clone());
                        self.create_group(representative, key, h)?
                    }
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

    /// Creates a group — recycling the least recently used one once
    /// [`MAX_GROUPS`] are live: clones the prebuilt backend template
    /// (keeping e.g. the CSR symbolic analysis instead of recomputing
    /// it), assembles `G` from the representative network and factors
    /// `(C + h·G)`. Returns the group index; a failed factorization is
    /// not cached (the next attempt retries). Every earlier kernel has
    /// finished with its group by now (a kernel borrows the solver), so
    /// any group may be recycled.
    fn create_group(
        &mut self,
        net: &ThermalNetwork,
        key: (u64, Vec<u64>),
        h: f64,
    ) -> Result<usize, ThermalError> {
        let mut backend = self.backend_template.clone();
        backend.assemble_conductance(net, &mut self.s_bound_scratch);
        backend.factor_be(&self.c, h)?;
        let entry = GroupCache {
            key,
            backend,
            last_used: self.step_counter,
        };
        if self.groups.len() < MAX_GROUPS {
            self.groups.push(entry);
            return Ok(self.groups.len() - 1);
        }
        let lru = self
            .groups
            .iter()
            .enumerate()
            .min_by_key(|(_, g)| g.last_used)
            .map_or(0, |(i, _)| i);
        // Recycling changes what an index means: invalidate the sticky
        // assignment.
        self.groups_epoch += 1;
        self.groups[lru] = entry;
        Ok(lru)
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

    /// Steps every lane of `packed` (lane `i` holds `nets[i]`'s
    /// temperatures) once, one flow class at a time: a class is the
    /// lanes whose networks carry bit-equal flows, its first network is
    /// the template, and only its lanes step.
    pub(crate) fn step_by_flow_class<B: SolverBackend + Clone>(
        solver: &mut BatchSolver<B>,
        nets: &[ThermalNetwork],
        packed: &mut PackedLanes,
        dt: SimDuration,
    ) {
        let powers = power_block(nets);
        let mut classes: Vec<(Vec<u64>, Vec<usize>)> = Vec::new();
        for (lane, net) in nets.iter().enumerate() {
            let mut signature = Vec::new();
            net.flow_signature_into(&mut signature);
            match classes.iter_mut().find(|(s, _)| *s == signature) {
                Some((_, members)) => members.push(lane),
                None => classes.push((signature, vec![lane])),
            }
        }
        for (_, members) in &classes {
            let kernel = solver.prepare_shared(&nets[members[0]], dt).unwrap();
            kernel.step_lanes(packed, &powers, members).unwrap();
        }
    }

    /// Each network stepped alone through its own scalar solver: the
    /// reference every batched path must match bit for bit.
    pub(crate) struct Scalar {
        solvers: Vec<TransientSolver<DenseBackend>>,
        pub(crate) states: Vec<ThermalState>,
    }

    impl Scalar {
        pub(crate) fn new(nets: &[ThermalNetwork], start: Celsius) -> Self {
            Self {
                solvers: nets.iter().map(TransientSolver::with_backend).collect(),
                states: nets.iter().map(|n| n.uniform_state(start)).collect(),
            }
        }

        pub(crate) fn step(&mut self, nets: &[ThermalNetwork], dt: SimDuration) {
            for ((solver, net), state) in self.solvers.iter_mut().zip(nets).zip(&mut self.states) {
                solver.step(net, state, dt).unwrap();
            }
        }

        /// Asserts `packed`'s lanes equal the reference states bit for
        /// bit.
        pub(crate) fn assert_matches(&self, packed: &PackedLanes, what: &str) {
            let lanes = packed.batch();
            assert_eq!(lanes, self.states.len(), "{what}: lane count");
            for (lane, want) in self.states.iter().enumerate() {
                for (slot, t) in want.temperatures().iter().enumerate() {
                    let got = packed.temperatures()[slot * lanes + lane];
                    assert_eq!(
                        got.to_bits(),
                        t.to_bits(),
                        "{what}: lane {lane} slot {slot}: batch {got} vs scalar {t}"
                    );
                }
            }
        }
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
        let mut scalar = Scalar::new(&nets, Celsius::new(24.0));
        let mut packed = PackedLanes::pack(&scalar.states);
        let dt = SimDuration::from_secs(1);
        for step in 0..200 {
            // Mid-run divergence: one lane changes flow (a second flow
            // class), another changes power (right-hand side only).
            if step == 60 {
                nets[1]
                    .set_flow(channels[1], AirFlow::from_cfm(420.0))
                    .unwrap();
            }
            if step == 120 {
                nets[3].set_power(dies[3], Watts::new(140.0)).unwrap();
            }
            step_by_flow_class(&mut batch, &nets, &mut packed, dt);
            scalar.step(&nets, dt);
        }
        assert_eq!(batch.group_count(), 2, "one factorization per flow class");
        scalar.assert_matches(&packed, "two flow classes");
    }

    #[test]
    fn per_lane_boundaries_stay_independent() {
        // Same flows, different inlets: each inlet is its own prepare
        // (its own boundary source) over one shared factorization.
        let (mut hot, _, amb, _) = build_instance();
        hot.set_boundary(amb, Celsius::new(40.0)).unwrap();
        let (cool, _, _, _) = build_instance();
        let mut solver = BatchSolver::new(&hot);
        let start = hot.uniform_state(Celsius::new(24.0));
        let mut packed = PackedLanes::pack(&[start.clone(), start]);
        let powers = power_block(&[hot.clone(), cool.clone()]);
        for _ in 0..1800 {
            for (lane, template) in [&hot, &cool].into_iter().enumerate() {
                let kernel = solver
                    .prepare_shared(template, SimDuration::from_secs(1))
                    .unwrap();
                kernel.step_lanes(&mut packed, &powers, &[lane]).unwrap();
            }
        }
        // The hot-inlet lane settles 16 K above the cool one.
        assert_eq!(solver.group_count(), 1);
        let die = packed.temperatures();
        assert!(die[0] - die[1] > 15.0);
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
        let _ = solver.prepare_shared(&other, SimDuration::from_secs(1));
    }

    #[test]
    fn zero_dt_and_empty_batch_are_noops() {
        let (mut net, die, _, _) = build_instance();
        net.set_power(die, Watts::new(80.0)).unwrap();
        let mut solver = BatchSolver::new(&net);
        assert_eq!(solver.group_count(), 0, "nothing factored before a step");
        let mut packed = PackedLanes::pack(&[net.uniform_state(Celsius::new(30.0))]);
        let powers = power_block(std::slice::from_ref(&net));
        let before = packed.temperatures().to_vec();
        let kernel = solver.prepare_shared(&net, SimDuration::ZERO).unwrap();
        // No lanes: nothing moves, bit for bit.
        kernel.step_lanes(&mut packed, &powers, &[]).unwrap();
        assert_eq!(packed.temperatures(), &before[..]);
        // No time: `C·x = C·T` gives the start temperatures back.
        kernel.step_shard(&mut packed, &powers).unwrap();
        for (got, want) in packed.temperatures().iter().zip(&before) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn packed_path_bit_identical_to_lane_api() {
        // The whole-shard kernel against per-lane scalar solvers.
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
        let mut scalar = Scalar::new(&nets, Celsius::new(24.0));
        let mut packed_solver = BatchSolver::new(&nets[0]);
        let mut packed = PackedLanes::pack(&scalar.states);
        assert_eq!(packed.batch(), count);
        let dt = SimDuration::from_secs(1);
        for step in 0..150 {
            if step == 50 {
                // Power changes flow through both paths identically.
                nets[2].set_power(dies[2], Watts::new(120.0)).unwrap();
            }
            scalar.step(&nets, dt);
            let powers = power_block(&nets);
            let kernel = packed_solver.prepare_shared(&nets[0], dt).unwrap();
            kernel.step_shard(&mut packed, &powers).unwrap();
        }
        assert_eq!(packed_solver.group_count(), 1);
        scalar.assert_matches(&packed, "one flow class");
        let mut unpacked = nets[0].uniform_state(Celsius::new(0.0));
        for (lane, want) in scalar.states.iter().enumerate() {
            packed.unpack_lane_into(lane, &mut unpacked);
            assert_eq!(&unpacked, want, "lane {lane} unpacks");
        }
        assert!(packed.max_temperature() > 24.0);
    }

    #[test]
    fn packed_path_handles_channel_free_networks() {
        // Pure-conduction topology: no flow channels, empty flow
        // signature — one class, must step rather than panic.
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
    fn more_groups_than_cache_cap_in_one_step_stays_correct() {
        // Every lane gets a distinct flow ⇒ more flow classes than
        // MAX_GROUPS in every step. Classes prepare and solve one at a
        // time, so the LRU cache stays capped while every lane stays
        // bit-identical to its scalar solver.
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
        let mut scalar = Scalar::new(&nets, Celsius::new(24.0));
        let mut packed = PackedLanes::pack(&scalar.states);
        let dt = SimDuration::from_secs(1);
        for _ in 0..5 {
            step_by_flow_class(&mut batch, &nets, &mut packed, dt);
            scalar.step(&nets, dt);
        }
        assert_eq!(batch.group_count(), MAX_GROUPS, "the cache stays capped");
        scalar.assert_matches(&packed, "one class per lane");
    }

    #[test]
    fn group_cache_recycles_under_flow_churn() {
        let (mut net, die, _, ch) = build_instance();
        net.set_power(die, Watts::new(60.0)).unwrap();
        let mut solver = BatchSolver::new(&net);
        let mut scalar = Scalar::new(std::slice::from_ref(&net), Celsius::new(24.0));
        let mut packed = PackedLanes::pack(&scalar.states);
        let dt = SimDuration::from_secs(1);
        // A long slew: every step a fresh flow signature.
        for step in 0..(MAX_GROUPS + 20) {
            net.set_flow(ch, AirFlow::from_cfm(100.0 + step as f64))
                .unwrap();
            let powers = power_block(std::slice::from_ref(&net));
            let kernel = solver.prepare_shared(&net, dt).unwrap();
            kernel.step_shard(&mut packed, &powers).unwrap();
            scalar.step(std::slice::from_ref(&net), dt);
        }
        assert!(solver.group_count() <= MAX_GROUPS);
        scalar.assert_matches(&packed, "after recycling");
    }
}
