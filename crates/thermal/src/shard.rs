//! Thread-sharded stepping of packed lane blocks.
//!
//! After the shared `(C + h·G)` factorization, packed lanes are
//! completely independent: the blocked substitution carries one
//! accumulator per lane and never mixes columns. A batch can therefore
//! be *split into per-shard slot-major blocks* and stepped on as many
//! threads as the machine offers with **bit-identical** results for any
//! thread or shard count — [`ShardPlan`] picks the deterministic
//! contiguous partition, [`ShardedLanes`] owns one
//! [`PackedLanes`] block per shard, and [`ShardedBatchSolver`] runs the
//! per-step pipeline:
//!
//! 1. *serial*: flow-homogeneity check and shared factorization
//!    (cheap, change-driven — sticky across constant-flow stretches);
//! 2. *parallel* ([`std::thread::scope`], no pool state to manage):
//!    each shard refreshes its lane-major source staging, builds its
//!    right-hand-side block and back-substitutes through the shared
//!    read-only factors.
//!
//! Thread count comes from [`ShardPlan::from_env`]
//! (`LEAKCTL_THREADS`, else the machine's available parallelism), and
//! small batches stay single-shard — and therefore inline, with zero
//! spawn overhead — via a minimum shard width.
//!
//! Two kernels share the factorization. [`StepKernel`] refreshes each
//! lane's sources from its own network. [`SharedKernel`] serves lanes
//! that share one template network's flows and boundary temperatures
//! (a fleet's servers on a common inlet): the caller supplies each
//! lane's power injection and the template supplies the one boundary
//! source, so no lane network is read at all.

use std::borrow::Borrow;
use std::ops::Range;
use std::thread;

use leakctl_units::SimDuration;

use crate::backend::{AutoBackend, SolverBackend};
use crate::batch::{BatchSolver, PackedLanes};
use crate::error::ThermalError;
use crate::network::{ThermalNetwork, ThermalState};

/// Environment variable overriding the worker thread count used by
/// [`ShardPlan::from_env`]. `LEAKCTL_THREADS=1` forces fully inline
/// (spawn-free) stepping; results are bit-identical either way.
pub const THREADS_ENV: &str = "LEAKCTL_THREADS";

/// Hard ceiling on worker threads (a plan never exceeds it).
const MAX_THREADS: usize = 64;

/// Default minimum lanes per shard: batches smaller than
/// `2 × DEFAULT_MIN_LANES_PER_SHARD` stay single-shard, so small fleets
/// (and every unit test) never pay thread-spawn overhead.
const DEFAULT_MIN_LANES_PER_SHARD: usize = 16;

/// Deterministic work partition: how many worker threads to use and
/// how finely to shard a batch across them.
///
/// The partition for a given lane count is a pure function of the plan
/// — contiguous ranges, sizes differing by at most one — and the
/// stepped results are bit-identical for *any* plan, so the plan is
/// purely a performance knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    threads: usize,
    min_lanes_per_shard: usize,
}

impl ShardPlan {
    /// A plan over `threads` workers (clamped to `1..=64`) with the
    /// default minimum shard width.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.clamp(1, MAX_THREADS),
            min_lanes_per_shard: DEFAULT_MIN_LANES_PER_SHARD,
        }
    }

    /// The plan the environment asks for: `LEAKCTL_THREADS` when set,
    /// else the machine's available parallelism. An unparsable value
    /// (a typo in a deployment manifest) also falls back to the
    /// machine's parallelism — a misconfiguration must not silently
    /// force the engine single-threaded.
    #[must_use]
    pub fn from_env() -> Self {
        let machine = || thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let threads = match std::env::var(THREADS_ENV) {
            Ok(v) => v.trim().parse::<usize>().unwrap_or_else(|_| machine()),
            Err(_) => machine(),
        };
        Self::new(threads)
    }

    /// Overrides the minimum lanes per shard (floored at 1) — mainly
    /// for tests that want many tiny shards, and for huge-node
    /// topologies where even narrow shards carry enough work.
    #[must_use]
    pub fn with_min_lanes_per_shard(mut self, min: usize) -> Self {
        self.min_lanes_per_shard = min.max(1);
        self
    }

    /// The worker thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of shards a batch of `lanes` splits into: at most
    /// `threads`, and wide enough that no shard is narrower than the
    /// minimum width (a batch below twice the minimum stays whole).
    #[must_use]
    pub fn shard_count(&self, lanes: usize) -> usize {
        if lanes == 0 {
            return 0;
        }
        self.threads.min((lanes / self.min_lanes_per_shard).max(1))
    }

    /// The deterministic contiguous lane ranges of each shard: sizes
    /// differ by at most one, earlier shards take the remainder.
    #[must_use]
    pub fn ranges(&self, lanes: usize) -> Vec<Range<usize>> {
        let shards = self.shard_count(lanes);
        let mut out = Vec::with_capacity(shards);
        if shards == 0 {
            return out;
        }
        let (base, rem) = (lanes / shards, lanes % shards);
        let mut start = 0;
        for i in 0..shards {
            let size = base + usize::from(i < rem);
            out.push(start..start + size);
            start += size;
        }
        out
    }
}

impl Default for ShardPlan {
    fn default() -> Self {
        Self::from_env()
    }
}

/// A batch of lane states split into per-shard slot-major
/// [`PackedLanes`] blocks, per a [`ShardPlan`].
///
/// Pack once, step many times through a [`ShardedBatchSolver`], and
/// unpack (whole states, single lanes, or just a few slots) whenever a
/// consumer needs per-lane [`ThermalState`]s again.
#[derive(Debug, Clone)]
pub struct ShardedLanes {
    n: usize,
    total: usize,
    /// Lane offset of each shard (parallel to `shards`).
    starts: Vec<usize>,
    shards: Vec<PackedLanes>,
}

impl ShardedLanes {
    /// Packs per-lane states into the plan's per-shard blocks.
    ///
    /// # Panics
    ///
    /// Panics when `states` is empty or disagrees in dimension.
    #[must_use]
    pub fn pack(states: &[ThermalState], plan: &ShardPlan) -> Self {
        assert!(!states.is_empty(), "sharded batch needs at least one lane");
        let n = states[0].len();
        let ranges = plan.ranges(states.len());
        let mut starts = Vec::with_capacity(ranges.len());
        let mut shards = Vec::with_capacity(ranges.len());
        for range in ranges {
            starts.push(range.start);
            shards.push(PackedLanes::pack(&states[range]));
        }
        Self {
            n,
            total: states.len(),
            starts,
            shards,
        }
    }

    /// Total lane count across all shards.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.total
    }

    /// State dimension per lane.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.n
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The contiguous lane range of shard `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn shard_range(&self, i: usize) -> Range<usize> {
        self.starts[i]..self.starts[i] + self.shards[i].batch()
    }

    /// Locates a lane: `(shard index, offset within the shard)`.
    fn locate(&self, lane: usize) -> (usize, usize) {
        assert!(lane < self.total, "lane out of range");
        let shard = self.starts.partition_point(|&s| s <= lane) - 1;
        (shard, lane - self.starts[shard])
    }

    /// Writes every lane's packed temperatures back into `states`.
    ///
    /// # Panics
    ///
    /// Panics when `states` does not match the packed shape.
    pub fn unpack_into(&self, states: &mut [ThermalState]) {
        assert_eq!(states.len(), self.total, "state count must match lanes");
        for (shard, &start) in self.shards.iter().zip(&self.starts) {
            shard.unpack_into(&mut states[start..start + shard.batch()]);
        }
    }

    /// Writes one lane's packed temperatures back into `state`.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range or `state` has the wrong
    /// dimension.
    pub fn unpack_lane_into(&self, lane: usize, state: &mut ThermalState) {
        let (shard, offset) = self.locate(lane);
        self.shards[shard].unpack_lane_into(offset, state);
    }

    /// Shard `i`'s block (its lanes are [`Self::shard_range`]`(i)`).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn shard(&self, i: usize) -> &PackedLanes {
        &self.shards[i]
    }

    /// One packed temperature, `(lane, slot)`.
    ///
    /// # Panics
    ///
    /// Panics when `lane` or `slot` is out of range.
    #[must_use]
    pub fn lane_temperature(&self, lane: usize, slot: usize) -> f64 {
        let (shard, offset) = self.locate(lane);
        self.shards[shard].lane_temperature(offset, slot)
    }

    /// The hottest packed temperature across all lanes.
    #[must_use]
    pub fn max_temperature(&self) -> f64 {
        self.shards
            .iter()
            .map(PackedLanes::max_temperature)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Iterates the per-shard blocks with their lane ranges — for
    /// external fleet engines that fuse their own per-lane work (server
    /// dynamics, telemetry) with [`StepKernel::step_shard`] inside one
    /// parallel region.
    pub fn shards_mut(&mut self) -> impl Iterator<Item = (Range<usize>, &mut PackedLanes)> {
        self.starts
            .iter()
            .zip(self.shards.iter_mut())
            .map(|(&start, shard)| {
                let batch = shard.batch();
                (start..start + batch, shard)
            })
    }
}

/// The immutable per-step solve context a [`ShardedBatchSolver`] hands
/// to shard workers after the serial prepare phase: the shared
/// factorization (read-only), the capacitances and the step size.
///
/// External fleet engines embed [`StepKernel::step_shard`] into their
/// own worker loops to fuse per-server dynamics with the thermal solve
/// in one parallel region.
#[derive(Debug)]
pub struct StepKernel<'a, B: SolverBackend> {
    backend: &'a B,
    c: &'a [f64],
    h: f64,
    structure_hash: u64,
}

impl<B: SolverBackend> Clone for StepKernel<'_, B> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<B: SolverBackend> Copy for StepKernel<'_, B> {}

impl<B: SolverBackend> StepKernel<'_, B> {
    /// Advances one shard by the prepared step: change-driven
    /// lane-major source refresh, contiguous right-hand-side build and
    /// blocked substitution through the shared factors. `net_of` maps
    /// a shard-local lane offset to its network.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when no valid factors
    /// are held and [`ThermalError::Diverged`] on a non-finite
    /// temperature.
    ///
    /// # Panics
    ///
    /// Panics when a lane's network does not match the template
    /// topology.
    pub fn step_shard<'n, F>(&self, shard: &mut PackedLanes, net_of: F) -> Result<(), ThermalError>
    where
        F: Fn(usize) -> &'n ThermalNetwork,
    {
        shard.refresh_sources(&net_of, self.structure_hash);
        shard.solve_be_block(self.backend, self.c, self.h, &net_of)
    }
}

/// The per-step solve context for lanes that share a template network's
/// flows and boundary temperatures, from
/// [`ShardedBatchSolver::prepare_shared`]: the shared factorization, the
/// capacitances, the step size and the one boundary source of the
/// group. Each lane's power injection comes from the caller.
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
    /// factors. Bit-identical to [`StepKernel::step_shard`] over lane
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
        shard.solve_be_block_with(
            self.backend,
            self.c,
            self.h,
            powers,
            self.bound,
            self.template,
        )
    }
}

/// Steps [`ShardedLanes`] through one shared backward-Euler
/// factorization on a scoped worker pool — the parallel counterpart of
/// [`BatchSolver::step_packed`], bit-identical to it (and to scalar
/// stepping) for every thread and shard count.
#[derive(Debug, Clone)]
pub struct ShardedBatchSolver<B: SolverBackend = AutoBackend> {
    inner: BatchSolver<B>,
    plan: ShardPlan,
    /// Flow generation seen per lane at the last homogeneity check.
    flow_gens: Vec<u64>,
    /// `true` while every lane is known to share the reference flow
    /// signature.
    homogeneous: bool,
    /// The shared boundary source of [`Self::prepare_shared`].
    bound: Vec<f64>,
}

impl ShardedBatchSolver<AutoBackend> {
    /// Builds a sharded solver for the template's topology with the
    /// environment's thread plan ([`ShardPlan::from_env`]).
    #[must_use]
    pub fn new(template: &ThermalNetwork) -> Self {
        Self::with_plan(template, ShardPlan::from_env())
    }

    /// Builds a sharded solver with an explicit plan.
    #[must_use]
    pub fn with_plan(template: &ThermalNetwork, plan: ShardPlan) -> Self {
        Self::with_backend_plan(template, plan)
    }
}

impl<B: SolverBackend + Clone> ShardedBatchSolver<B> {
    /// Builds a sharded solver over an explicit backend and plan.
    #[must_use]
    pub fn with_backend_plan(template: &ThermalNetwork, plan: ShardPlan) -> Self {
        Self {
            inner: BatchSolver::<B>::with_backend(template),
            plan,
            flow_gens: Vec::new(),
            homogeneous: false,
            bound: Vec::new(),
        }
    }

    /// The work partition in force.
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of live shared factorizations.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.inner.group_count()
    }

    /// The underlying per-lane [`BatchSolver`] — fleets fall back to
    /// its mixed-signature `step` when lane flows diverge, sharing the
    /// same factorization cache.
    pub fn lane_solver_mut(&mut self) -> &mut BatchSolver<B> {
        &mut self.inner
    }

    /// Serial phase of a step: verifies flow homogeneity across all
    /// `count` lanes (change-driven on flow generations) and resolves
    /// the shared factorization. Returns the read-only [`StepKernel`]
    /// the parallel phase solves through.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::MixedBatchSignatures`] when lane flows
    /// have diverged and [`ThermalError::SingularSystem`] when the
    /// factorization fails.
    pub fn prepare<'n, F>(
        &mut self,
        net_of: F,
        count: usize,
        dt: SimDuration,
    ) -> Result<StepKernel<'_, B>, ThermalError>
    where
        F: Fn(usize) -> &'n ThermalNetwork,
    {
        if !self.lanes_homogeneous(&net_of, count) {
            return Err(ThermalError::MixedBatchSignatures);
        }
        let h = dt.as_secs_f64();
        let group = self.inner.ensure_shared_group(net_of(0), h)?;
        Ok(StepKernel {
            backend: self.inner.group_backend(group),
            c: self.inner.capacitances(),
            h,
            structure_hash: self.inner.template_structure_hash(),
        })
    }

    /// `true` when the first `count` lane networks all carry the same
    /// flow values — the shared-factorization precondition. The check
    /// is change-driven: it re-compares signatures only after some
    /// lane's flow generation moved.
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
            self.homogeneous = self.inner.flows_homogeneous(&net_of, count);
        }
        self.homogeneous
    }

    /// Serial phase of a step for lanes that all hold `template`'s
    /// flows and boundary temperatures (the caller guarantees it, for
    /// instance servers sharing one inlet and one delivered fan flow):
    /// resolves the shared factorization from `template` and assembles
    /// the one boundary source every lane shares. No lane network is
    /// read.
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
            self.inner.template_structure_hash(),
            "template network is not structurally identical to the batch template"
        );
        let h = dt.as_secs_f64();
        let group = self.inner.ensure_shared_group(template, h)?;
        self.bound.resize(template.state_count(), 0.0);
        template.assemble_boundary_source_into(&mut self.bound);
        Ok(SharedKernel {
            backend: self.inner.group_backend(group),
            c: self.inner.capacitances(),
            h,
            bound: &self.bound,
            template,
        })
    }
}

impl<B: SolverBackend + Clone + Sync> ShardedBatchSolver<B> {
    /// Advances every packed lane by `dt` through one shared
    /// factorization, stepping shards concurrently on a
    /// [`std::thread::scope`] worker per shard (inline when the batch
    /// is single-shard). Results are bit-identical to
    /// [`BatchSolver::step_packed`] for any plan.
    ///
    /// # Errors
    ///
    /// As [`BatchSolver::step_packed`]; with several shards failing at
    /// once, the lowest shard's error is reported.
    ///
    /// # Panics
    ///
    /// Panics when `nets` does not match the packed shape or a network
    /// is not structurally identical to the template.
    pub fn step<N: Borrow<ThermalNetwork> + Sync>(
        &mut self,
        nets: &[N],
        lanes: &mut ShardedLanes,
        dt: SimDuration,
    ) -> Result<(), ThermalError> {
        self.step_with(|lane| nets[lane].borrow(), nets.len(), lanes, dt)
    }

    /// As [`Self::step`], with lane networks resolved through a
    /// closure — for callers whose networks are not contiguous in
    /// memory (fleets of servers, hash-grouped members).
    ///
    /// # Errors
    ///
    /// As [`Self::step`].
    ///
    /// # Panics
    ///
    /// As [`Self::step`].
    pub fn step_with<'n, F>(
        &mut self,
        net_of: F,
        count: usize,
        lanes: &mut ShardedLanes,
        dt: SimDuration,
    ) -> Result<(), ThermalError>
    where
        F: Fn(usize) -> &'n ThermalNetwork + Sync,
    {
        if dt.is_zero() || count == 0 {
            return Ok(());
        }
        assert_eq!(count, lanes.lanes(), "network count must match lanes");
        let kernel = self.prepare(&net_of, count, dt)?;
        step_shards_once(&kernel, &net_of, lanes)
    }

    /// Advances every packed lane by `steps × dt` with inputs frozen
    /// (guaranteed by the shared borrow of the networks): the serial
    /// prepare runs once, then every worker iterates its shard's full
    /// step sequence independently — zero cross-thread synchronization
    /// inside the run, which is what makes sharded stepping scale to
    /// the core count. Bit-identical to calling [`Self::step`] `steps`
    /// times.
    ///
    /// # Errors
    ///
    /// As [`Self::step`].
    ///
    /// # Panics
    ///
    /// As [`Self::step`].
    pub fn step_many<N: Borrow<ThermalNetwork> + Sync>(
        &mut self,
        nets: &[N],
        lanes: &mut ShardedLanes,
        steps: u64,
        dt: SimDuration,
    ) -> Result<(), ThermalError> {
        if dt.is_zero() || nets.is_empty() || steps == 0 {
            return Ok(());
        }
        assert_eq!(nets.len(), lanes.lanes(), "network count must match lanes");
        let net_of = |lane: usize| nets[lane].borrow();
        let kernel = self.prepare(net_of, nets.len(), dt)?;
        if lanes.shard_count() == 1 {
            let shard = &mut lanes.shards[0];
            for _ in 0..steps {
                kernel.step_shard(shard, net_of)?;
            }
            return Ok(());
        }
        let starts = &lanes.starts;
        thread::scope(|scope| {
            let mut handles = Vec::with_capacity(lanes.shards.len());
            for (shard, &start) in lanes.shards.iter_mut().zip(starts) {
                let kernel = &kernel;
                handles.push(scope.spawn(move || {
                    for _ in 0..steps {
                        kernel.step_shard(shard, |offset| net_of(start + offset))?;
                    }
                    Ok(())
                }));
            }
            join_shard_results(handles)
        })
    }
}

/// Runs one prepared step over every shard — inline when single-shard,
/// one scoped worker per shard otherwise.
fn step_shards_once<'n, B, F>(
    kernel: &StepKernel<'_, B>,
    net_of: &F,
    lanes: &mut ShardedLanes,
) -> Result<(), ThermalError>
where
    B: SolverBackend + Sync,
    F: Fn(usize) -> &'n ThermalNetwork + Sync,
{
    if lanes.shard_count() == 1 {
        return kernel.step_shard(&mut lanes.shards[0], net_of);
    }
    let starts = &lanes.starts;
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(lanes.shards.len());
        for (shard, &start) in lanes.shards.iter_mut().zip(starts) {
            handles.push(
                scope.spawn(move || kernel.step_shard(shard, |offset| net_of(start + offset))),
            );
        }
        join_shard_results(handles)
    })
}

/// Joins shard workers in shard order, reporting the lowest-indexed
/// failure (deterministic regardless of completion order).
fn join_shard_results(
    handles: Vec<thread::ScopedJoinHandle<'_, Result<(), ThermalError>>>,
) -> Result<(), ThermalError> {
    let mut first_err = None;
    for handle in handles {
        let result = handle
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        if first_err.is_none() {
            first_err = result.err();
        }
    }
    first_err.map_or(Ok(()), Err)
}

/// Partitions items by structure hash in first-seen order: returns the
/// member lists of input *positions*, one list per distinct hash — the
/// grouping policy of the core fleet engine.
#[must_use]
pub fn group_by_structure_hash(hashes: impl Iterator<Item = u64>) -> Vec<Vec<usize>> {
    let mut seen: Vec<u64> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (position, hash) in hashes.enumerate() {
        match seen.iter().position(|&h| h == hash) {
            Some(g) => groups[g].push(position),
            None => {
                seen.push(hash);
                groups.push(vec![position]);
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DenseBackend;
    use crate::network::{Coupling, ThermalNetworkBuilder};
    use leakctl_units::{AirFlow, Celsius, ThermalCapacitance, ThermalConductance, Watts};

    fn build_server_like(
        sockets: usize,
    ) -> (ThermalNetwork, Vec<crate::NodeId>, crate::FlowChannelId) {
        let mut b = ThermalNetworkBuilder::new();
        let amb = b.add_boundary("ambient", Celsius::new(24.0));
        let ch = b.add_flow_channel("chassis");
        let model = crate::ConvectionModel::turbulent(
            ThermalConductance::new(3.4),
            AirFlow::from_cfm(300.0),
        );
        let mut dies = Vec::new();
        for s in 0..sockets {
            let die = b.add_node(&format!("die{s}"), ThermalCapacitance::new(80.0));
            let sink = b.add_node(&format!("sink{s}"), ThermalCapacitance::new(400.0));
            b.connect(
                die,
                sink,
                Coupling::Conductance(ThermalConductance::new(10.0)),
            )
            .unwrap();
            b.connect(sink, amb, Coupling::Convective { channel: ch, model })
                .unwrap();
            dies.push(die);
        }
        let mut net = b.build().unwrap();
        net.set_flow(ch, AirFlow::from_cfm(250.0)).unwrap();
        (net, dies, ch)
    }

    fn fleet(count: usize, sockets: usize) -> Vec<ThermalNetwork> {
        (0..count)
            .map(|lane| {
                let (mut net, dies, _) = build_server_like(sockets);
                for (s, &die) in dies.iter().enumerate() {
                    net.set_power(die, Watts::new(40.0 + 3.0 * lane as f64 + s as f64))
                        .unwrap();
                }
                net
            })
            .collect()
    }

    #[test]
    fn plan_partition_is_deterministic_and_covers() {
        let plan = ShardPlan::new(4).with_min_lanes_per_shard(1);
        let ranges = plan.ranges(10);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..3);
        assert_eq!(ranges[1], 3..6);
        assert_eq!(ranges[2], 6..8);
        assert_eq!(ranges[3], 8..10);
        assert_eq!(plan.ranges(10), ranges, "pure function of the plan");
        // Default width keeps small batches whole.
        assert_eq!(ShardPlan::new(8).shard_count(20), 1);
        assert_eq!(ShardPlan::new(8).shard_count(64), 4);
        assert_eq!(ShardPlan::new(2).shard_count(64), 2);
        assert_eq!(ShardPlan::new(0).threads(), 1, "clamped");
    }

    #[test]
    fn sharded_step_bit_identical_to_packed_for_any_plan() {
        let nets = fleet(13, 2);
        let states: Vec<_> = nets
            .iter()
            .map(|n| n.uniform_state(Celsius::new(24.0)))
            .collect();
        let dt = SimDuration::from_secs(1);

        let mut reference = BatchSolver::<DenseBackend>::with_backend(&nets[0]);
        let mut packed = PackedLanes::pack(&states);
        for _ in 0..100 {
            reference.step_packed(&nets, &mut packed, dt).unwrap();
        }
        let mut want: Vec<_> = nets
            .iter()
            .map(|n| n.uniform_state(Celsius::new(0.0)))
            .collect();
        packed.unpack_into(&mut want);

        for threads in [1usize, 2, 8] {
            for min_width in [1usize, 3, 16] {
                let plan = ShardPlan::new(threads).with_min_lanes_per_shard(min_width);
                let mut solver =
                    ShardedBatchSolver::<DenseBackend>::with_backend_plan(&nets[0], plan);
                let mut lanes = ShardedLanes::pack(&states, &plan);
                for _ in 0..100 {
                    solver.step(&nets, &mut lanes, dt).unwrap();
                }
                let mut got: Vec<_> = nets
                    .iter()
                    .map(|n| n.uniform_state(Celsius::new(0.0)))
                    .collect();
                lanes.unpack_into(&mut got);
                for (lane, (a, b)) in got.iter().zip(&want).enumerate() {
                    for (i, (x, y)) in a.temperatures().iter().zip(b.temperatures()).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "threads {threads} width {min_width} lane {lane} slot {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn step_many_matches_stepwise() {
        let nets = fleet(40, 2);
        let states: Vec<_> = nets
            .iter()
            .map(|n| n.uniform_state(Celsius::new(24.0)))
            .collect();
        let dt = SimDuration::from_secs(1);
        let plan = ShardPlan::new(3).with_min_lanes_per_shard(4);

        let mut a = ShardedBatchSolver::<DenseBackend>::with_backend_plan(&nets[0], plan);
        let mut lanes_a = ShardedLanes::pack(&states, &plan);
        a.step_many(&nets, &mut lanes_a, 80, dt).unwrap();

        let mut b = ShardedBatchSolver::<DenseBackend>::with_backend_plan(&nets[0], plan);
        let mut lanes_b = ShardedLanes::pack(&states, &plan);
        for _ in 0..80 {
            b.step(&nets, &mut lanes_b, dt).unwrap();
        }
        for lane in 0..nets.len() {
            for slot in 0..nets[0].state_count() {
                assert_eq!(
                    lanes_a.lane_temperature(lane, slot).to_bits(),
                    lanes_b.lane_temperature(lane, slot).to_bits(),
                    "lane {lane} slot {slot}"
                );
            }
        }
        assert!(lanes_a.max_temperature() > 24.0);
    }

    #[test]
    fn mixed_flows_rejected_then_recoverable() {
        let mut nets = fleet(6, 1);
        let states: Vec<_> = nets
            .iter()
            .map(|n| n.uniform_state(Celsius::new(24.0)))
            .collect();
        let plan = ShardPlan::new(2).with_min_lanes_per_shard(1);
        let mut solver = ShardedBatchSolver::with_plan(&nets[0], plan);
        let mut lanes = ShardedLanes::pack(&states, &plan);
        let dt = SimDuration::from_secs(1);
        solver.step(&nets, &mut lanes, dt).unwrap();
        // Diverge one lane's flow: the shared-factorization contract
        // breaks.
        let ch = crate::FlowChannelId(0);
        nets[3].set_flow(ch, AirFlow::from_cfm(500.0)).unwrap();
        assert_eq!(
            solver.step(&nets, &mut lanes, dt),
            Err(ThermalError::MixedBatchSignatures)
        );
        // Re-converge: stepping resumes.
        nets[3].set_flow(ch, AirFlow::from_cfm(250.0)).unwrap();
        solver.step(&nets, &mut lanes, dt).unwrap();
    }

    #[test]
    fn sharded_lane_accessors_agree_with_unpack() {
        let nets = fleet(9, 2);
        let states: Vec<_> = nets
            .iter()
            .map(|n| n.uniform_state(Celsius::new(24.0)))
            .collect();
        let plan = ShardPlan::new(3).with_min_lanes_per_shard(2);
        let mut solver = ShardedBatchSolver::with_plan(&nets[0], plan);
        let mut lanes = ShardedLanes::pack(&states, &plan);
        for _ in 0..50 {
            solver
                .step(&nets, &mut lanes, SimDuration::from_secs(1))
                .unwrap();
        }
        let mut unpacked: Vec<_> = nets
            .iter()
            .map(|n| n.uniform_state(Celsius::new(0.0)))
            .collect();
        lanes.unpack_into(&mut unpacked);
        let n = nets[0].state_count();
        for (lane, state) in unpacked.iter().enumerate() {
            let mut single = nets[lane].uniform_state(Celsius::new(0.0));
            lanes.unpack_lane_into(lane, &mut single);
            assert_eq!(state, &single);
            for slot in 0..n {
                assert_eq!(
                    lanes.lane_temperature(lane, slot),
                    state.temperatures()[slot]
                );
            }
        }
    }

    #[test]
    fn zero_dt_and_zero_steps_are_noops() {
        let nets = fleet(3, 1);
        let states: Vec<_> = nets
            .iter()
            .map(|n| n.uniform_state(Celsius::new(24.0)))
            .collect();
        let plan = ShardPlan::new(2).with_min_lanes_per_shard(1);
        let mut solver = ShardedBatchSolver::with_plan(&nets[0], plan);
        let mut lanes = ShardedLanes::pack(&states, &plan);
        solver.step(&nets, &mut lanes, SimDuration::ZERO).unwrap();
        solver
            .step_many(&nets, &mut lanes, 0, SimDuration::from_secs(1))
            .unwrap();
        assert_eq!(lanes.max_temperature(), 24.0);
        assert_eq!(solver.group_count(), 0);
    }
}
