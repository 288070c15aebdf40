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
//! run over contiguous lanes and vectorize. A step opens with
//! [`BatchSolver::begin_step`]; [`BatchSolver::prepare`] then resolves
//! the factorization of a template network holding one flow class's
//! flows, and [`BatchSolver::kernel`] pairs it with the caller's
//! boundary-source columns — one per rack, since racks differ only in
//! their inlet ([`ThermalNetwork::assemble_boundary_sources_into`]).
//! The returned [`SharedKernel`] steps [`PackedLanes`] blocks —
//! temperatures resident slot-major between steps — from
//! caller-supplied power blocks, each [`RackSpan`] of lanes on its
//! rack's column, reading no lane network. Every factorization
//! prepared in a step stays cached until the next step begins (or the
//! caller releases it), so a step may hold one kernel per flow class at
//! once; lanes whose flows differ step class by class with
//! [`SharedKernel::step_lanes`].
//!
//! Every lane's arithmetic is bit-identical to stepping it alone
//! through a `TransientSolver` with the same backend: assembly,
//! factorization and the per-lane accumulation order of the block
//! substitution all match the scalar path exactly. A fleet of one
//! therefore reproduces the single-server trajectory to the last bit.

use std::ops::Range;

use leakctl_units::SimDuration;

use crate::backend::{AutoBackend, SolverBackend};
use crate::error::ThermalError;
use crate::network::{ThermalNetwork, ThermalState};

/// Slot-major packed lane temperatures for [`SharedKernel::step_racks`]:
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
    /// power injection of every lane, and each span's lanes take `b`
    /// from their rack's boundary-source column of `kernel` — and
    /// solves the block through the kernel's cached `(C + h·G)` factors,
    /// advancing the packed temperatures in place. The source is
    /// `power + bound`, the operands of a scalar solve's
    /// `s = s_power + s_bound` in the same order, so per-lane arithmetic
    /// is bit-identical to it.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when the backend holds
    /// no valid factors and [`ThermalError::Diverged`] (named through
    /// the kernel's network) on a non-finite result.
    fn solve_be_block<B: SolverBackend>(
        &mut self,
        kernel: &SharedKernel<'_, B>,
        powers: &[f64],
        spans: &[RackSpan],
    ) -> Result<(), ThermalError> {
        let (n, batch) = (self.n, self.batch);
        assert_eq!(powers.len(), n * batch, "power block shape");
        assert!(RackSpan::cover(spans, batch), "rack spans tile the block");
        let h = kernel.h;
        for (slot, &ci) in kernel.c.iter().enumerate() {
            let row = slot * batch;
            for span in spans {
                let b = kernel.bounds[span.rack * n + slot];
                let lanes = row + span.lanes.start..row + span.lanes.end;
                let temps = &self.temps[lanes.clone()];
                let p_row = &powers[lanes.clone()];
                for ((r, &t), &p) in self.rhs[lanes].iter_mut().zip(temps).zip(p_row) {
                    *r = ci * t + h * (p + b);
                }
            }
        }
        kernel
            .backend
            .solve_be_block_into(&self.rhs, &mut self.temps, batch, &mut self.acc)?;
        if let Some(bad) = self.temps.iter().position(|t| !t.is_finite()) {
            return Err(ThermalError::Diverged {
                name: kernel.names.slot_name(bad / batch).to_owned(),
            });
        }
        Ok(())
    }
}

/// A run of a packed block's lanes that share one boundary-source
/// column: one rack's lanes, on the rack's inlet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RackSpan {
    /// The lanes, contiguous in the block.
    pub lanes: Range<usize>,
    /// The rack: the column of the kernel's boundary sources (and of
    /// any other per-rack operand) these lanes read.
    pub rack: usize,
}

impl RackSpan {
    /// `true` when `spans` tile lanes `0..lanes` in order, with no gap
    /// or overlap.
    #[must_use]
    pub fn cover(spans: &[Self], lanes: usize) -> bool {
        let mut next = 0;
        for span in spans {
            if span.lanes.start != next {
                return false;
            }
            next = span.lanes.end;
        }
        next == lanes
    }
}

/// The per-step solve context of one flow class, from
/// [`BatchSolver::kernel`]: the
/// shared factorization, the capacitances, the step size and one
/// boundary-source column per rack. Each lane's power injection comes
/// from the caller.
///
/// The context is read-only, so shard workers step their
/// [`PackedLanes`] blocks through it concurrently.
#[derive(Debug)]
pub struct SharedKernel<'a, B: SolverBackend> {
    backend: &'a B,
    c: &'a [f64],
    h: f64,
    /// Boundary sources, one column per rack (`[rack * n + slot]`).
    bounds: &'a [f64],
    /// Names the slot of a diverged solve.
    names: &'a ThermalNetwork,
}

impl<B: SolverBackend> SharedKernel<'_, B> {
    /// Advances one block by the prepared step: builds the right-hand
    /// side from the packed temperatures, the caller's `powers`
    /// (slot-major, `[slot * shard.batch() + lane]`) and each span's
    /// rack's boundary-source column, then back-substitutes through the
    /// shared factors. Bit-identical to a scalar
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
    /// Panics when `powers` does not match the shard's shape, `spans`
    /// do not tile the block, or a span's rack has no column.
    pub fn step_racks(
        &self,
        shard: &mut PackedLanes,
        powers: &[f64],
        spans: &[RackSpan],
    ) -> Result<(), ThermalError> {
        shard.solve_be_block(self, powers, spans)
    }

    /// Advances only `lanes` (distinct, ascending lane indices of
    /// `shard`, which `spans` tile by rack) by the prepared step — one
    /// flow class of a block whose lanes' flows diverged. Their
    /// temperatures and `powers` columns are gathered into a block of
    /// their own, stepped as [`Self::step_racks`] steps a block, and
    /// scattered back; every other lane is untouched. Each lane's
    /// arithmetic is the same as in a whole-block step.
    ///
    /// # Errors
    ///
    /// As [`Self::step_racks`]; on error `shard` is left as it was.
    ///
    /// # Panics
    ///
    /// As [`Self::step_racks`], and when a lane is out of range or the
    /// lanes are not ascending.
    pub fn step_lanes(
        &self,
        shard: &mut PackedLanes,
        powers: &[f64],
        spans: &[RackSpan],
        lanes: &[usize],
    ) -> Result<(), ThermalError> {
        let (n, batch, width) = (shard.n, shard.batch, lanes.len());
        assert_eq!(powers.len(), n * batch, "power block shape");
        assert!(RackSpan::cover(spans, batch), "rack spans tile the block");
        assert!(
            lanes.windows(2).all(|pair| pair[0] < pair[1]) && lanes.last() < Some(&batch),
            "lanes are ascending and in range"
        );
        if lanes.is_empty() {
            return Ok(());
        }
        // The gathered lanes' racks, as spans of the gathered block.
        let mut gathered: Vec<RackSpan> = Vec::new();
        let mut span = spans.iter();
        let mut current = span.next();
        for (column, &lane) in lanes.iter().enumerate() {
            while current.is_some_and(|s| s.lanes.end <= lane) {
                current = span.next();
            }
            let rack = current.map_or(0, |s| s.rack);
            match gathered.last_mut() {
                Some(last) if last.rack == rack => last.lanes.end = column + 1,
                _ => gathered.push(RackSpan {
                    lanes: column..column + 1,
                    rack,
                }),
            }
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
        self.step_racks(&mut block, &block_powers, &gathered)?;
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
    /// The step of the last use, for LRU replacement.
    last_used: u64,
}

/// Retained shared factorizations before the cache recycles: fan-slew
/// transients mint a new flow signature every step, and beyond this
/// many live groups the least-recently-used one not prepared in the
/// current step is recycled. A step that prepares more classes than
/// this grows the cache to its class count instead, so no class it
/// prepared is evicted and a settled step finds every class cached.
const MAX_GROUPS: usize = 32;

/// A factorization resolved for the current step by
/// [`BatchSolver::prepare`]; it stays valid until the next
/// [`BatchSolver::begin_step`] or its [`BatchSolver::release`].
#[derive(Debug, PartialEq)]
pub struct Prepared {
    group: usize,
    h: f64,
    step: u64,
}

/// Steps N identical-topology networks through shared backward-Euler
/// factorizations with a blocked multi-RHS substitution.
///
/// Build it from any network of the target topology (only its structure
/// and capacitances are read). Each step, call
/// [`BatchSolver::begin_step`], then for each flow class set a template
/// network to the class's flows, [`BatchSolver::prepare`] it and pair it
/// with the lanes' boundary-source columns through
/// [`BatchSolver::kernel`]; the returned [`SharedKernel`] steps packed
/// lane blocks from per-lane power injections.
///
/// # Example
///
/// ```
/// use leakctl_thermal::{BatchSolver, Coupling, PackedLanes, RackSpan, ThermalNetworkBuilder};
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
/// // Every lane on the template's ambient: one boundary-source column.
/// let mut bound = vec![0.0; template.state_count()];
/// template.assemble_boundary_source_into(&mut bound);
/// let whole = [RackSpan { lanes: 0..2, rack: 0 }];
///
/// let mut solver = BatchSolver::new(&template);
/// for _ in 0..600 {
///     solver.begin_step();
///     let prepared = solver.prepare(&template, SimDuration::from_secs(1))?;
///     let kernel = solver.kernel(&prepared, &bound, &template);
///     kernel.step_racks(&mut lanes, &powers, &whole)?;
/// }
/// // Twice the power, twice the rise — through one factorization.
/// let die_temps = lanes.temperatures();
/// assert!((die_temps[0] - 49.0).abs() < 0.5);
/// assert!((die_temps[1] - 74.0).abs() < 0.5);
/// assert_eq!(solver.group_count(), 1);
/// assert_eq!(solver.factorizations(), 1);
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
    /// The current step, advanced by [`Self::begin_step`].
    step: u64,
    /// Factorizations computed since construction.
    factorizations: u64,
    /// Bumped whenever a group slot is recycled; invalidates the sticky
    /// group index (indices stay stable on append).
    groups_epoch: u64,
    /// Sticky group of [`Self::prepare`]:
    /// `(group index, groups_epoch, h_bits, template flow generation)`.
    shared_group: Option<(usize, u64, u64, u64)>,
    // ---- reusable workspaces ---------------------------------------
    sig_scratch: Vec<u64>,
    /// Boundary-source workspace group creation assembles into.
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
            step: 0,
            factorizations: 0,
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

    /// Factorizations computed since construction (diagnostics: it
    /// stops moving once every flow class a step prepares is cached).
    #[must_use]
    pub fn factorizations(&self) -> u64 {
        self.factorizations
    }

    /// Opens a new step: every [`Prepared`] handle of the last step
    /// expires, and the factorizations that step prepared become
    /// recyclable again.
    pub fn begin_step(&mut self) {
        self.step += 1;
    }

    /// Gives back a factorization the current step prepared but will
    /// not step with (a class prepared ahead that no lane ran): it stays
    /// cached, ahead of every older group, but a class prepared later in
    /// the step may recycle it instead of growing the cache.
    pub fn release(&mut self, prepared: Prepared) {
        if prepared.step == self.step {
            if let Some(group) = self.groups.get_mut(prepared.group) {
                group.last_used = self.step - 1;
            }
        }
    }

    /// Resolves the factorization for lanes holding `template`'s flows
    /// at step `dt`: sticky while `(dt, template flow generation, group
    /// table epoch)` are unchanged, otherwise a signature lookup and —
    /// on miss — a fresh factorization from `template`. No lane network
    /// is read. The handle stays valid, and its factorization cached,
    /// until the next [`Self::begin_step`].
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
    pub fn prepare(
        &mut self,
        template: &ThermalNetwork,
        dt: SimDuration,
    ) -> Result<Prepared, ThermalError> {
        assert_eq!(
            template.structure_hash(),
            self.structure_hash,
            "template network is not structurally identical to the batch template"
        );
        let h = dt.as_secs_f64();
        let h_bits = h.to_bits();
        let sticky = self.shared_group.and_then(|(idx, epoch, hb, fg)| {
            (epoch == self.groups_epoch
                && hb == h_bits
                && fg == template.flow_generation()
                && idx < self.groups.len())
            .then_some(idx)
        });
        let group = match sticky {
            Some(idx) => idx,
            None => {
                self.sig_scratch.clear();
                template.flow_signature_into(&mut self.sig_scratch);
                let found = self
                    .groups
                    .iter()
                    .position(|g| g.key.0 == h_bits && g.key.1 == self.sig_scratch);
                let idx = match found {
                    Some(idx) => idx,
                    None => {
                        let key = (h_bits, self.sig_scratch.clone());
                        self.create_group(template, key, h)?
                    }
                };
                self.shared_group =
                    Some((idx, self.groups_epoch, h_bits, template.flow_generation()));
                idx
            }
        };
        self.groups[group].last_used = self.step;
        Ok(Prepared {
            group,
            h,
            step: self.step,
        })
    }

    /// The kernel of a factorization prepared in the current step, over
    /// `bounds` — one boundary-source column per rack
    /// (`[rack * n + slot]`, see
    /// [`ThermalNetwork::assemble_boundary_sources_into`]); `names`
    /// (any network of the topology) names a diverged slot.
    ///
    /// # Panics
    ///
    /// Panics when `prepared` is from an earlier step or `bounds` is not
    /// a whole, non-zero number of columns.
    #[must_use]
    pub fn kernel<'s>(
        &'s self,
        prepared: &Prepared,
        bounds: &'s [f64],
        names: &'s ThermalNetwork,
    ) -> SharedKernel<'s, B> {
        assert_eq!(prepared.step, self.step, "prepared in an earlier step");
        let n = self.c.len();
        assert!(
            !bounds.is_empty() && bounds.len().is_multiple_of(n.max(1)),
            "boundary sources are whole columns"
        );
        SharedKernel {
            backend: &self.groups[prepared.group].backend,
            c: &self.c,
            h: prepared.h,
            bounds,
            names,
        }
    }

    /// Creates a group: clones the prebuilt backend template (keeping
    /// e.g. the CSR symbolic analysis instead of recomputing it),
    /// assembles `G` from the representative network and factors
    /// `(C + h·G)`. Returns the group index; a failed factorization is
    /// not cached (the next attempt retries). Once [`MAX_GROUPS`] are
    /// live it recycles the least recently used group that the current
    /// step has not prepared; when the step has prepared all of them it
    /// appends, so every handle of the step stays valid.
    fn create_group(
        &mut self,
        net: &ThermalNetwork,
        key: (u64, Vec<u64>),
        h: f64,
    ) -> Result<usize, ThermalError> {
        let mut backend = self.backend_template.clone();
        backend.assemble_conductance(net, &mut self.s_bound_scratch);
        backend.factor_be(&self.c, h)?;
        self.factorizations += 1;
        let entry = GroupCache {
            key,
            backend,
            last_used: self.step,
        };
        let stale = self
            .groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.last_used != self.step)
            .min_by_key(|(_, g)| g.last_used)
            .map(|(i, _)| i);
        match stale {
            Some(lru) if self.groups.len() >= MAX_GROUPS => {
                // Recycling changes what an index means: invalidate the
                // sticky assignment.
                self.groups_epoch += 1;
                self.groups[lru] = entry;
                Ok(lru)
            }
            _ => {
                self.groups.push(entry);
                Ok(self.groups.len() - 1)
            }
        }
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

    /// Every lane of a `lanes`-wide block on one rack.
    pub(crate) fn one_rack(lanes: usize) -> [RackSpan; 1] {
        [RackSpan {
            lanes: 0..lanes,
            rack: 0,
        }]
    }

    /// A whole step's kernel for lanes that all hold `net`'s flows and
    /// boundary temperatures: opens a step, prepares `net` and pairs it
    /// with its one boundary-source column (written into `bound`).
    pub(crate) fn kernel_of<'s, B: SolverBackend + Clone>(
        solver: &'s mut BatchSolver<B>,
        net: &'s ThermalNetwork,
        dt: SimDuration,
        bound: &'s mut Vec<f64>,
    ) -> SharedKernel<'s, B> {
        solver.begin_step();
        let prepared = solver.prepare(net, dt).unwrap();
        bound.resize(net.state_count(), 0.0);
        net.assemble_boundary_source_into(bound);
        let solver: &'s BatchSolver<B> = solver;
        solver.kernel(&prepared, bound, net)
    }

    /// Steps every lane of `packed` (lane `i` holds `nets[i]`'s
    /// temperatures) once, one flow class at a time within one step: a
    /// class is the lanes whose networks carry bit-equal flows, its
    /// first network is the template, and only its lanes step.
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
        let spans = one_rack(nets.len());
        let mut bound = vec![0.0; nets[0].state_count()];
        solver.begin_step();
        for (_, members) in &classes {
            let template = &nets[members[0]];
            let prepared = solver.prepare(template, dt).unwrap();
            template.assemble_boundary_source_into(&mut bound);
            let kernel = solver.kernel(&prepared, &bound, template);
            kernel.step_lanes(packed, &powers, &spans, members).unwrap();
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
        let mut bound = Vec::new();
        for _ in 0..1800 {
            for (lane, template) in [&hot, &cool].into_iter().enumerate() {
                let dt = SimDuration::from_secs(1);
                let kernel = kernel_of(&mut solver, template, dt, &mut bound);
                kernel
                    .step_lanes(&mut packed, &powers, &one_rack(2), &[lane])
                    .unwrap();
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
        let _ = solver.prepare(&other, SimDuration::from_secs(1));
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
        let mut bound = Vec::new();
        let kernel = kernel_of(&mut solver, &net, SimDuration::ZERO, &mut bound);
        // No lanes: nothing moves, bit for bit.
        kernel
            .step_lanes(&mut packed, &powers, &one_rack(1), &[])
            .unwrap();
        assert_eq!(packed.temperatures(), &before[..]);
        // No time: `C·x = C·T` gives the start temperatures back.
        kernel
            .step_racks(&mut packed, &powers, &one_rack(1))
            .unwrap();
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
        let mut bound = Vec::new();
        for step in 0..150 {
            if step == 50 {
                // Power changes flow through both paths identically.
                nets[2].set_power(dies[2], Watts::new(120.0)).unwrap();
            }
            scalar.step(&nets, dt);
            let powers = power_block(&nets);
            let kernel = kernel_of(&mut packed_solver, &nets[0], dt, &mut bound);
            kernel
                .step_racks(&mut packed, &powers, &one_rack(count))
                .unwrap();
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
        let mut bound = Vec::new();
        for _ in 0..600 {
            let kernel = kernel_of(&mut solver, &nets[0], SimDuration::from_secs(1), &mut bound);
            kernel
                .step_racks(&mut packed, &powers, &one_rack(2))
                .unwrap();
        }
        // Powered lane heads to 74 °C, unpowered stays ambient.
        assert!((packed.max_temperature() - 74.0).abs() < 0.5);
    }

    #[test]
    fn more_groups_than_cache_cap_in_one_step_stays_correct() {
        // Every lane gets a distinct flow ⇒ more flow classes than
        // MAX_GROUPS in every step. No class a step prepared is evicted
        // within it, so the cache grows to the step's class count, the
        // first step factors every class and the later ones none, while
        // every lane stays bit-identical to its scalar solver.
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
        for step in 0..5 {
            step_by_flow_class(&mut batch, &nets, &mut packed, dt);
            scalar.step(&nets, dt);
            assert_eq!(
                batch.factorizations(),
                count as u64,
                "step {step}: only the first step factors"
            );
        }
        assert_eq!(batch.group_count(), count, "one group per class");
        scalar.assert_matches(&packed, "one class per lane");

        // A later step of fewer classes recycles the stale groups
        // instead of growing further.
        let fresh: Vec<ThermalNetwork> = (0..3)
            .map(|i| {
                let (mut net, _, _, ch) = build_instance();
                net.set_flow(ch, AirFlow::from_cfm(500.0 + i as f64))
                    .unwrap();
                net
            })
            .collect();
        let mut packed = PackedLanes::pack(&Scalar::new(&fresh, Celsius::new(24.0)).states);
        step_by_flow_class(&mut batch, &fresh, &mut packed, dt);
        assert_eq!(batch.group_count(), count, "stale groups recycled");
        assert_eq!(batch.factorizations(), count as u64 + 3);
    }

    #[test]
    fn kernel_spans_read_their_racks_columns() {
        // Two racks on different inlets in one block, through one
        // factorization: each lane matches a scalar solve of its own
        // network, bit for bit.
        let (hot, _, amb, _) = build_instance();
        let inlets = [Celsius::new(24.0), Celsius::new(35.0)];
        let nets: Vec<ThermalNetwork> = (0..5)
            .map(|lane| {
                let mut net = hot.clone();
                let rack = usize::from(lane >= 2);
                net.set_boundary(amb, inlets[rack]).unwrap();
                net
            })
            .collect();
        let spans = [
            RackSpan {
                lanes: 0..2,
                rack: 0,
            },
            RackSpan {
                lanes: 2..5,
                rack: 1,
            },
        ];
        let mut scalar = Scalar::new(&nets, Celsius::new(24.0));
        let mut packed = PackedLanes::pack(&scalar.states);
        let mut solver = BatchSolver::<DenseBackend>::with_backend(&hot);
        let mut bounds = vec![0.0; 2 * hot.state_count()];
        hot.assemble_boundary_sources_into(amb, &inlets, &mut bounds);
        let powers = power_block(&nets);
        let dt = SimDuration::from_secs(1);
        for step in 0..120 {
            solver.begin_step();
            let prepared = solver.prepare(&hot, dt).unwrap();
            let kernel = solver.kernel(&prepared, &bounds, &hot);
            if step % 2 == 0 {
                kernel.step_racks(&mut packed, &powers, &spans).unwrap();
            } else {
                // The same step through the gathered path.
                kernel
                    .step_lanes(&mut packed, &powers, &spans, &[0, 2, 4])
                    .unwrap();
                kernel
                    .step_lanes(&mut packed, &powers, &spans, &[1, 3])
                    .unwrap();
            }
            scalar.step(&nets, dt);
        }
        scalar.assert_matches(&packed, "two racks");
        assert_eq!(solver.factorizations(), 1);
        assert!(!RackSpan::cover(&spans[1..], 5));
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
        let mut bound = Vec::new();
        for step in 0..(MAX_GROUPS + 20) {
            net.set_flow(ch, AirFlow::from_cfm(100.0 + step as f64))
                .unwrap();
            let powers = power_block(std::slice::from_ref(&net));
            let kernel = kernel_of(&mut solver, &net, dt, &mut bound);
            kernel
                .step_racks(&mut packed, &powers, &one_rack(1))
                .unwrap();
            scalar.step(std::slice::from_ref(&net), dt);
        }
        assert!(solver.group_count() <= MAX_GROUPS);
        scalar.assert_matches(&packed, "after recycling");
    }
}
