//! A rack-scale fleet of digital-twin servers stepped through the
//! thread-sharded, shared-factorization batch engine.
//!
//! [`Fleet`] supersedes the original scalar `Rack` (which stepped each
//! server's thermal network through its own per-server solve) while
//! preserving its public API. The physics is unchanged and
//! bit-identical to an identically seeded scalar `Server::step` loop:
//! fan dynamics, failsafe, power models and telemetry run through the
//! same platform methods; only where the state lives and how the
//! thermal integration is batched differ.
//!
//! The stepping engine works in three layers:
//!
//! - **Hash groups.** Servers are partitioned by their thermal
//!   network's [`structure_hash`](leakctl_thermal::ThermalNetwork::structure_hash)
//!   (mixed-SKU fleets via [`Fleet::from_configs`]); each group batches
//!   through its own shared `(dt, flow)` factorizations.
//! - **Resident temperatures and dynamics.** From construction on, a
//!   group's thermal state lives in slot-major [`ShardedLanes`] blocks
//!   and its per-step dynamics — fan banks, failsafes, clocks,
//!   accounting, power parameters — in [`DynamicsLanes`] arrays beside
//!   them. Every step is begin → solve → finish over those arrays, and
//!   no `Server` is touched. When every lane delivers the same chassis
//!   flow (the common fleet regime) the solve is one
//!   [`SharedKernel`](leakctl_thermal::SharedKernel) pass per shard,
//!   fused with finish, from each lane's power injection and the one
//!   boundary source the group's inlet and flow give. When a fan fault
//!   or a failsafe trip makes the flows diverge, the lanes solve one
//!   flow class at a time: each class (bit-equal flow) prepares its own
//!   factorization and boundary source and steps only its lanes of each
//!   shard. Fleet accessors (energy, power, die temperatures, faults,
//!   commands, accounting) read and write the lane arrays. A server
//!   object is written back from its lane when something reads it —
//!   [`Fleet::server`], [`Fleet::checkpoint`] — and, for the lanes
//!   concerned, on every step whose CSTH poll falls due.
//! - **Shard workers.** Large groups split into per-shard lane blocks
//!   ([`ShardPlan`], thread count from `LEAKCTL_THREADS` or the
//!   machine) and each step's two parallel phases — begin (fans,
//!   failsafe, powers, accounting) and solve+finish — run one
//!   [`std::thread::scope`] worker per shard. Results are bit-identical
//!   for any thread or shard count.
//!
//! Inlet coupling follows the original model: all servers share one
//! inlet whose temperature drifts with the rack's total heat (exhaust
//! recirculation) — the "real-life data center" setting the paper's
//! conclusion points toward.

use std::ops::Range;
use std::thread;

use leakctl_platform::{
    DynamicsLanes, FanFault, LaneTemplate, PlatformError, Server, ServerConfig,
};
use leakctl_thermal::{
    group_by_structure_hash, BatchSolver, PackedLanes, ShardPlan, ShardedLanes, ThermalState,
};
use leakctl_units::{AirFlow, Celsius, Joules, Rpm, SimDuration, TempDelta, Utilization, Watts};

use crate::error::CoreError;

/// One structure-hash group: a contiguous run of (storage-ordered)
/// servers sharing a topology, batched through one solver.
#[derive(Debug)]
struct FleetGroup {
    /// Contiguous storage range of this group's servers.
    range: Range<usize>,
    solver: BatchSolver,
    /// The group's representative network, set to each solve's flow
    /// and inlet.
    template: LaneTemplate,
    /// The group's state, authoritative over the servers' copies.
    resident: Resident,
}

/// Where a server lives inside its group's resident blocks (fixed: the
/// plan's partition depends only on the group size).
#[derive(Debug, Clone, Copy)]
struct LaneRef {
    group: usize,
    shard: usize,
    offset: usize,
}

/// A group's lanes: packed temperatures and dynamics records.
#[derive(Debug)]
struct Resident {
    temps: ShardedLanes,
    /// One block per shard of `temps`, over the same lanes.
    dynamics: Vec<DynamicsLanes>,
    /// The inlet of the last step: every lane's ambient boundary
    /// (`None` before the first step, when each server keeps its own).
    inlet: Option<Celsius>,
}

impl Resident {
    /// Loads a group's servers into resident blocks on `plan`'s
    /// partition.
    fn load(servers: &[Server], plan: &ShardPlan) -> Self {
        let states: Vec<ThermalState> = servers.iter().map(|s| s.thermal_state().clone()).collect();
        let temps = ShardedLanes::pack(&states, plan);
        let dynamics = (0..temps.shard_count())
            .map(|i| DynamicsLanes::load(&servers[temps.shard_range(i)]))
            .collect();
        Self {
            temps,
            dynamics,
            inlet: None,
        }
    }

    /// Writes every lane back into its server.
    fn store(&self, servers: &mut [Server]) {
        for (i, dynamics) in self.dynamics.iter().enumerate() {
            let range = self.temps.shard_range(i);
            dynamics.store(self.temps.shard(i), self.inlet, &mut servers[range]);
        }
    }

    /// Writes one lane back into its server.
    fn store_lane(&self, lane: LaneRef, server: &mut Server) {
        self.dynamics[lane.shard].store_lane(
            lane.offset,
            self.temps.shard(lane.shard),
            self.inlet,
            server,
        );
    }

    fn command_all(&mut self, rpm: Rpm, servers: &mut [Server]) {
        for (i, dynamics) in self.dynamics.iter_mut().enumerate() {
            dynamics.command_all(rpm, &mut servers[self.temps.shard_range(i)]);
        }
    }

    /// Runs `work` on every (temperature block, dynamics block) pair —
    /// the first shard on the calling thread, each further shard on a
    /// scoped worker — and folds the results in shard order.
    fn fold_shards<T: Send>(
        &mut self,
        work: impl Fn(&mut PackedLanes, &mut DynamicsLanes) -> T + Sync,
        combine: impl Fn(T, T) -> T,
    ) -> T {
        let single = self.dynamics.len() == 1;
        let mut blocks = self.temps.shards_mut().zip(&mut self.dynamics);
        let Some(((_, temps), dynamics)) = blocks.next() else {
            unreachable!("a resident group has at least one shard");
        };
        if single {
            return work(temps, dynamics);
        }
        thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = blocks
                .map(|((_, temps), dynamics)| scope.spawn(move || work(temps, dynamics)))
                .collect();
            let first = work(temps, dynamics);
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .fold(first, combine)
        })
    }
}

impl FleetGroup {
    /// The solve of a step whose lanes' flows diverged, one flow class
    /// at a time: each class — the lanes delivering one chassis flow,
    /// bit for bit, in first-seen order — sets the template to its flow,
    /// prepares its factorization and boundary source, and solves only
    /// its lanes of each shard.
    fn solve_flow_classes(&mut self, dt: SimDuration, inlet: Celsius) -> Result<(), CoreError> {
        let resident = &mut self.resident;
        let mut classes: Vec<AirFlow> = Vec::new();
        for flow in resident.dynamics.iter().flat_map(DynamicsLanes::flows) {
            if !classes.iter().any(|&class| same_bits(class, flow)) {
                classes.push(flow);
            }
        }
        let mut members = Vec::new();
        for class in classes {
            self.template.set_inputs(class, inlet)?;
            let kernel = self
                .solver
                .prepare_shared(self.template.network(), dt)
                .map_err(PlatformError::from)?;
            for ((_, temps), dynamics) in resident.temps.shards_mut().zip(&resident.dynamics) {
                members.clear();
                members.extend(
                    dynamics
                        .flows()
                        .enumerate()
                        .filter(|&(_, flow)| same_bits(flow, class))
                        .map(|(lane, _)| lane),
                );
                kernel
                    .step_lanes(temps, dynamics.sources(), &members)
                    .map_err(PlatformError::from)?;
            }
        }
        Ok(())
    }
}

/// `true` when two flows are equal bit for bit.
fn same_bits(a: AirFlow, b: AirFlow) -> bool {
    a.value().to_bits() == b.value().to_bits()
}

/// The common flow of two shards, or `None` when either diverged or
/// they differ.
fn same_flow(a: Option<AirFlow>, b: Option<AirFlow>) -> Option<AirFlow> {
    match (a, b) {
        (Some(x), Some(y)) if same_bits(x, y) => Some(x),
        _ => None,
    }
}

/// A rack of servers with inlet-temperature coupling:
///
/// ```text
/// T_inlet = T_room + r · P_rack
/// ```
///
/// where `r` (K/W) models how much of the rack's exhaust heat
/// recirculates to the inlet (0 for perfect containment; a few mK/W for
/// a poorly sealed aisle).
///
/// Every server belongs to exactly one structure-hash group, and every
/// step batches each group's backward-Euler solves through shared
/// factorizations on the packed sharded engine.
///
/// # Example
///
/// ```
/// use leakctl::fleet::Fleet;
/// use leakctl_platform::ServerConfig;
/// use leakctl_units::{Rpm, SimDuration, Utilization};
///
/// # fn main() -> Result<(), leakctl::CoreError> {
/// let mut fleet = Fleet::new(ServerConfig::default(), 4, 0.004, 42)?;
/// fleet.command_all(Rpm::new(2400.0));
/// for _ in 0..60 {
///     fleet.step(SimDuration::from_secs(1), Utilization::FULL)?;
/// }
/// assert!(fleet.inlet_temperature().degrees() > 24.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Fleet {
    /// Servers in storage order: hash groups, each contiguous.
    servers: Vec<Server>,
    /// `index_map[original] = storage` — public indices are original
    /// construction order.
    index_map: Vec<usize>,
    /// `lanes[storage]`: the server's place in its group's resident
    /// blocks.
    lanes: Vec<LaneRef>,
    room: Celsius,
    recirculation_k_per_w: f64,
    /// The shard partition of every group.
    plan: ShardPlan,
    groups: Vec<FleetGroup>,
}

impl Fleet {
    /// Builds a fleet of `count` servers from a shared config; each
    /// server gets an independent sensor-noise stream derived from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for an empty fleet or negative
    /// recirculation, and propagates server-construction failures.
    pub fn new(
        config: ServerConfig,
        count: usize,
        recirculation_k_per_w: f64,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let configs = vec![config; count];
        Self::with_plan(&configs, recirculation_k_per_w, seed, Self::default_plan())
    }

    /// Builds a heterogeneous (mixed-SKU) fleet: server `i` is built
    /// from `configs[i]` (seeded `seed + i`). Servers are grouped by
    /// thermal-topology hash, and each group batches through its own
    /// shared factorizations — a room of several SKUs still steps
    /// batched within each SKU. The room temperature is taken from the
    /// first config's ambient.
    ///
    /// # Errors
    ///
    /// As [`Fleet::new`].
    pub fn from_configs(
        configs: &[ServerConfig],
        recirculation_k_per_w: f64,
        seed: u64,
    ) -> Result<Self, CoreError> {
        Self::with_plan(configs, recirculation_k_per_w, seed, Self::default_plan())
    }

    /// The environment's thread plan, widened for fleet stepping: a
    /// step spawns its scoped workers twice (begin phase, then
    /// solve+finish), so shards need enough per-server dynamics work to
    /// amortize the spawns — a wider floor than the thermal-only
    /// kernels use. [`Fleet::with_plan`] honors a caller's plan
    /// verbatim.
    fn default_plan() -> ShardPlan {
        ShardPlan::from_env().with_min_lanes_per_shard(32)
    }

    /// As [`Fleet::from_configs`], with an explicit thread/shard plan
    /// instead of the environment's (results are bit-identical for any
    /// plan; this is a performance/test knob).
    ///
    /// # Errors
    ///
    /// As [`Fleet::new`].
    pub fn with_plan(
        configs: &[ServerConfig],
        recirculation_k_per_w: f64,
        seed: u64,
        plan: ShardPlan,
    ) -> Result<Self, CoreError> {
        let built = configs
            .iter()
            .enumerate()
            .map(|(i, config)| Server::new(config.clone(), seed.wrapping_add(i as u64)))
            .collect::<Result<Vec<Server>, PlatformError>>()?;
        Self::from_servers(built, recirculation_k_per_w, plan)
    }

    /// Assembles a fleet from freshly built servers (server `i` keeps
    /// index `i`; the room temperature is server 0's ambient) and loads
    /// every group's lanes. A [`Room`](crate::room::Room) builds all its
    /// racks' servers first and then assembles each rack, so every
    /// rack's step data — lanes, template and solver — is allocated
    /// together instead of between the racks' servers.
    ///
    /// # Errors
    ///
    /// As [`Fleet::new`].
    pub(crate) fn from_servers(
        built: Vec<Server>,
        recirculation_k_per_w: f64,
        plan: ShardPlan,
    ) -> Result<Self, CoreError> {
        if built.is_empty() {
            return Err(CoreError::Invalid {
                what: "fleet needs at least one server".to_owned(),
            });
        }
        if !(recirculation_k_per_w >= 0.0 && recirculation_k_per_w.is_finite()) {
            return Err(CoreError::Invalid {
                what: "recirculation coefficient must be non-negative".to_owned(),
            });
        }
        let room = built[0].config().ambient;

        // Group original indices by first-seen structure hash (the
        // shared `group_by_structure_hash` policy). Storage order =
        // concatenated groups, so every group is one contiguous,
        // shardable server run.
        let member_lists =
            group_by_structure_hash(built.iter().map(|s| s.thermal_network().structure_hash()));
        let mut index_map = vec![0usize; built.len()];
        let mut order: Vec<usize> = Vec::with_capacity(built.len());
        let mut ranges = Vec::with_capacity(member_lists.len());
        for members in &member_lists {
            let start = order.len();
            order.extend_from_slice(members);
            ranges.push(start..order.len());
        }
        for (storage, &original) in order.iter().enumerate() {
            index_map[original] = storage;
        }
        let mut by_storage: Vec<Option<Server>> = built.into_iter().map(Some).collect();
        let mut servers: Vec<Server> = Vec::with_capacity(order.len());
        for &original in &order {
            let Some(server) = by_storage[original].take() else {
                return Err(CoreError::Invalid {
                    what: "internal: server storage permutation is not a bijection".to_owned(),
                });
            };
            servers.push(server);
        }
        // Groups are contiguous in storage order and a plan's shard
        // ranges tile their group, so lanes come out in storage order.
        let mut lanes = Vec::with_capacity(servers.len());
        for (g, range) in ranges.iter().enumerate() {
            for (shard, lane_range) in plan.ranges(range.len()).into_iter().enumerate() {
                lanes.extend((0..lane_range.len()).map(|offset| LaneRef {
                    group: g,
                    shard,
                    offset,
                }));
            }
        }
        let groups = ranges
            .into_iter()
            .map(|range| {
                let members = &servers[range.clone()];
                FleetGroup {
                    solver: BatchSolver::new(members[0].thermal_network()),
                    template: LaneTemplate::of(&members[0]),
                    resident: Resident::load(members, &plan),
                    range,
                }
            })
            .collect();
        Ok(Self {
            servers,
            index_map,
            lanes,
            room,
            recirculation_k_per_w,
            plan,
            groups,
        })
    }

    /// Number of servers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// `true` when the fleet is empty (construction forbids it).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Number of structure-hash groups batching through shared
    /// factorizations (1 for a homogeneous fleet).
    #[must_use]
    pub fn hash_group_count(&self) -> usize {
        self.groups.len()
    }

    /// Commands every server's fans (a command takes effect from the
    /// next step: command latency, then slew). A server whose failsafe
    /// is engaged ignores it and traces that.
    pub fn command_all(&mut self, rpm: Rpm) {
        for group in &mut self.groups {
            let servers = &mut self.servers[group.range.clone()];
            group.resident.command_all(rpm, servers);
        }
    }

    /// Access to an individual server (e.g. to read per-server
    /// telemetry or ground truth). Takes `&mut self` because the
    /// server's state lives in its group's lanes between steps: this
    /// writes the server's lane back first.
    #[must_use]
    pub fn server(&mut self, index: usize) -> Option<&Server> {
        let &storage = self.index_map.get(index)?;
        let lane = self.lanes[storage];
        self.groups[lane.group]
            .resident
            .store_lane(lane, &mut self.servers[storage]);
        Some(&self.servers[storage])
    }

    /// Writes every group's lanes back into its servers.
    fn sync_states(&mut self) {
        for group in &self.groups {
            group.resident.store(&mut self.servers[group.range.clone()]);
        }
    }

    /// A storage index's dynamics block and offset in it.
    fn dynamics_at(&self, storage: usize) -> (&DynamicsLanes, usize) {
        let lane = self.lanes[storage];
        let dynamics = &self.groups[lane.group].resident.dynamics[lane.shard];
        (dynamics, lane.offset)
    }

    /// Number of shared factorizations currently live across the batch
    /// engines (1 while a homogeneous fleet runs one `(dt, flow)`
    /// operating point; one per flow class — and per SKU — once fan
    /// flows diverge, up to each solver's cache bound).
    #[must_use]
    pub fn batch_group_count(&self) -> usize {
        self.groups.iter().map(|g| g.solver.group_count()).sum()
    }

    /// Injects (or clears, with [`FanFault::None`]) a fan-bank fault
    /// on server `index`, in its lane's record. From the next step the
    /// faulted server's chassis flow diverges from its neighbours, and
    /// its group solves one flow class at a time until the flows agree
    /// again.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for an out-of-range server or a
    /// [`FanFault::Degraded`] flow scale outside `[0, 1]`.
    pub fn inject_fan_fault(&mut self, index: usize, fault: FanFault) -> Result<(), CoreError> {
        if let FanFault::Degraded { flow_scale } = fault {
            if !(flow_scale.is_finite() && (0.0..=1.0).contains(&flow_scale)) {
                return Err(CoreError::Invalid {
                    what: "degraded fan flow scale must be in [0, 1]".to_owned(),
                });
            }
        }
        let &storage = self
            .index_map
            .get(index)
            .ok_or_else(|| CoreError::Invalid {
                what: format!("server index {index} out of range"),
            })?;
        let lane = self.lanes[storage];
        self.groups[lane.group].resident.dynamics[lane.shard].inject_fan_fault(
            lane.offset,
            fault,
            &mut self.servers[storage],
        );
        Ok(())
    }

    /// Server `index`'s currently injected fan fault (`None` for an
    /// out-of-range index).
    #[must_use]
    pub fn fan_fault(&self, index: usize) -> Option<FanFault> {
        let &storage = self.index_map.get(index)?;
        let (dynamics, offset) = self.dynamics_at(storage);
        Some(dynamics.record(offset).fan_fault())
    }

    /// Snapshots the full fleet — every server's thermal state, fan
    /// bank (faults included), service processor, clock, accounting
    /// and sensor RNG streams — in original index order. The lanes are
    /// written back into the servers first, so the snapshot is exact
    /// under any thread plan.
    pub fn checkpoint(&mut self) -> FleetCheckpoint {
        self.sync_states();
        FleetCheckpoint {
            servers: self
                .index_map
                .iter()
                .map(|&storage| self.servers[storage].clone())
                .collect(),
        }
    }

    /// Restores a [`Fleet::checkpoint`] — into this fleet or any fleet
    /// built from the same configs (any thread/shard plan) — and
    /// reloads every group's lanes from the restored servers, so the
    /// resumed trajectory is bit-identical to the uninterrupted one.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] when the checkpoint's server
    /// count or thermal topologies do not match this fleet.
    pub fn restore(&mut self, checkpoint: &FleetCheckpoint) -> Result<(), CoreError> {
        self.can_restore(checkpoint)?;
        for (original, snap) in checkpoint.servers.iter().enumerate() {
            self.servers[self.index_map[original]] = snap.clone();
        }
        for group in &mut self.groups {
            group.resident = Resident::load(&self.servers[group.range.clone()], &self.plan);
        }
        Ok(())
    }

    /// Checks that `checkpoint` could be restored into this fleet
    /// without doing it — the validation half of [`Fleet::restore`],
    /// exposed so multi-fleet owners (a [`Room`](crate::room::Room))
    /// can validate every rack before mutating any of them.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] when the checkpoint's server
    /// count or thermal topologies do not match this fleet.
    pub fn can_restore(&self, checkpoint: &FleetCheckpoint) -> Result<(), CoreError> {
        if checkpoint.servers.len() != self.servers.len() {
            return Err(CoreError::Invalid {
                what: format!(
                    "checkpoint holds {} servers, fleet has {}",
                    checkpoint.servers.len(),
                    self.servers.len()
                ),
            });
        }
        for (original, snap) in checkpoint.servers.iter().enumerate() {
            let storage = self.index_map[original];
            if snap.thermal_network().structure_hash()
                != self.servers[storage].thermal_network().structure_hash()
            {
                return Err(CoreError::Invalid {
                    what: format!("checkpoint server {original} has a different thermal topology"),
                });
            }
        }
        Ok(())
    }

    /// Advances every server by `dt` at the same activity level, then
    /// updates the shared inlet temperature from the fleet's total heat.
    ///
    /// # Errors
    ///
    /// Propagates platform failures.
    pub fn step(&mut self, dt: SimDuration, activity: Utilization) -> Result<(), CoreError> {
        let inlet = self.inlet_temperature();
        self.step_with_inlet(dt, activity, inlet)
    }

    /// Advances every server by `dt` with an *externally supplied*
    /// inlet temperature — the room-scale coupling point: a
    /// [`Room`](crate::room::Room) reads each rack's cold-aisle air
    /// volume from the room network and feeds it here, replacing the
    /// scalar `T_room + r·P` drift that [`Fleet::step`] applies.
    ///
    /// # Errors
    ///
    /// Propagates platform failures.
    pub fn step_with_inlet(
        &mut self,
        dt: SimDuration,
        activity: Utilization,
        inlet: Celsius,
    ) -> Result<(), CoreError> {
        for g in 0..self.groups.len() {
            self.step_group(g, dt, activity, inlet)?;
        }
        Ok(())
    }

    /// One hash group's step over its lanes: begin (sharded), then the
    /// solve, then finish (sharded) and the CSTH polls that fell due.
    /// When every lane delivers one flow the solve is one shared
    /// factorization fused with finish over each whole shard; otherwise
    /// it runs one flow class at a time
    /// ([`FleetGroup::solve_flow_classes`]) before finish.
    fn step_group(
        &mut self,
        g: usize,
        dt: SimDuration,
        activity: Utilization,
        inlet: Celsius,
    ) -> Result<(), CoreError> {
        let group = &mut self.groups[g];
        let servers = &mut self.servers[group.range.clone()];
        group.resident.inlet = Some(inlet);
        if dt.is_zero() {
            return Ok(());
        }
        let resident = &mut group.resident;
        let flow = resident.fold_shards(
            |temps, dynamics| dynamics.begin(temps, dt, activity),
            same_flow,
        );
        for (i, dynamics) in resident.dynamics.iter_mut().enumerate() {
            dynamics.flush_events(&mut servers[resident.temps.shard_range(i)]);
        }
        let poll_due = if let Some(flow) = flow {
            group.template.set_inputs(flow, inlet)?;
            let kernel = group
                .solver
                .prepare_shared(group.template.network(), dt)
                .map_err(PlatformError::from)?;
            group.resident.fold_shards(
                |temps, dynamics| {
                    kernel.step_shard(temps, dynamics.sources())?;
                    Ok::<bool, PlatformError>(dynamics.finish(temps, dt))
                },
                |a, b| Ok(a? | b?),
            )?
        } else {
            group.solve_flow_classes(dt, inlet)?;
            group
                .resident
                .fold_shards(|temps, dynamics| dynamics.finish(temps, dt), |a, b| a | b)
        };
        if poll_due {
            let resident = &mut group.resident;
            for (i, dynamics) in resident.dynamics.iter_mut().enumerate() {
                let range = resident.temps.shard_range(i);
                dynamics.poll(resident.temps.shard(i), &mut servers[range])?;
            }
        }
        Ok(())
    }

    /// The current shared inlet temperature.
    #[must_use]
    pub fn inlet_temperature(&self) -> Celsius {
        let drift = TempDelta::new(self.recirculation_k_per_w * self.total_power().value());
        self.room + drift
    }

    /// Total fleet power (system + fans across all servers), summed in
    /// *original* server order: storage order groups servers by hash,
    /// and float addition is order-sensitive, so summing storage-order
    /// would bitwise-diverge a mixed-SKU fleet from the scalar
    /// reference loop the bit-identity tests compare against. Each
    /// server contributes the end-of-step power its last step recorded
    /// (nothing changes it between steps).
    #[must_use]
    pub fn total_power(&self) -> Watts {
        Watts::new(
            self.index_map
                .iter()
                .map(|&storage| {
                    let (dynamics, offset) = self.dynamics_at(storage);
                    dynamics.power(offset).value()
                })
                .sum(),
        )
    }

    /// Total fleet energy since construction (original server order,
    /// see [`Fleet::total_power`]).
    #[must_use]
    pub fn total_energy(&self) -> Joules {
        self.index_map
            .iter()
            .map(|&storage| {
                let (dynamics, offset) = self.dynamics_at(storage);
                dynamics.record(offset).total_energy()
            })
            .sum()
    }

    /// Resets every server's energy, peak-power and timing
    /// accumulators (e.g. after a warm-up phase). Thermal state is
    /// untouched.
    pub fn reset_accounting(&mut self) {
        for group in &mut self.groups {
            for dynamics in &mut group.resident.dynamics {
                dynamics.reset_accounting();
            }
        }
    }

    /// The hottest die anywhere in the fleet.
    #[must_use]
    pub fn max_die_temperature(&self) -> Celsius {
        (0..self.servers.len())
            .map(|storage| self.die_temp_at_storage(storage))
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
    }

    /// Every server's hottest die temperature, in original index
    /// order, appended into `out` (cleared first).
    ///
    /// Reads straight from the packed blocks — no write-back (which
    /// [`Fleet::server`] forces) — so rack- and room-level controller
    /// loops can poll die temperatures every decision period for free.
    pub fn die_temps_view(&self, out: &mut Vec<Celsius>) {
        out.clear();
        out.extend(
            self.index_map
                .iter()
                .map(|&storage| self.die_temp_at_storage(storage)),
        );
    }

    /// One server's hottest die, from its group's packed block.
    fn die_temp_at_storage(&self, storage: usize) -> Celsius {
        let lane = self.lanes[storage];
        let resident = &self.groups[lane.group].resident;
        resident.dynamics[lane.shard]
            .max_die_temperature(resident.temps.shard(lane.shard), lane.offset)
    }
}

/// A full fleet snapshot, produced by [`Fleet::checkpoint`]: server
/// clones (thermal state, fans, faults, accounting, RNG streams) in
/// original index order, restorable into any fleet built from the same
/// configs for a bit-identical resume under any thread plan.
#[derive(Debug, Clone)]
pub struct FleetCheckpoint {
    servers: Vec<Server>,
}

impl FleetCheckpoint {
    /// Number of servers captured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// `true` when the checkpoint is empty (never, for a real fleet).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }
}

/// Runs `work` over each shard's chunk of `items` — inline when there
/// is a single range, one scoped worker per range otherwise — and
/// reports the lowest shard's failure (deterministic regardless of
/// completion order). `work` also receives its chunk's range so
/// callers can slice per-item side arrays. Shared by the room's rack
/// phase (sharding fleets across racks) and the building's room phase.
pub(crate) fn run_sharded<T, E, F>(
    items: &mut [T],
    ranges: &[Range<usize>],
    work: F,
) -> Result<(), E>
where
    T: Send,
    E: Send,
    F: Fn(&mut [T], Range<usize>) -> Result<(), E> + Sync,
{
    if ranges.len() <= 1 {
        let full = 0..items.len();
        return work(items, full);
    }
    let results = thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranges.len());
        let mut rest = items;
        for range in ranges {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let work = &work;
            handles.push(scope.spawn(move || work(chunk, range.clone())));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect::<Vec<_>>()
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validated() {
        assert!(matches!(
            Fleet::new(ServerConfig::default(), 0, 0.0, 1),
            Err(CoreError::Invalid { .. })
        ));
        assert!(matches!(
            Fleet::new(ServerConfig::default(), 2, -1.0, 1),
            Err(CoreError::Invalid { .. })
        ));
        let mut fleet = Fleet::new(ServerConfig::default(), 3, 0.001, 1).unwrap();
        assert_eq!(fleet.len(), 3);
        assert!(!fleet.is_empty());
        assert_eq!(fleet.hash_group_count(), 1, "homogeneous fleet, one SKU");
        assert!(fleet.server(0).is_some());
        assert!(fleet.server(3).is_none());
    }

    #[test]
    fn recirculation_raises_inlet_and_dies() {
        let run = |k: f64| {
            let mut fleet = Fleet::new(ServerConfig::default(), 4, k, 7).unwrap();
            fleet.command_all(Rpm::new(2400.0));
            for _ in 0..1_800 {
                fleet
                    .step(SimDuration::from_secs(1), Utilization::FULL)
                    .unwrap();
            }
            (fleet.inlet_temperature(), fleet.max_die_temperature())
        };
        let (inlet_sealed, die_sealed) = run(0.0);
        let (inlet_leaky, die_leaky) = run(0.004);
        assert!((inlet_sealed.degrees() - 24.0).abs() < 1e-9);
        assert!(
            inlet_leaky.degrees() > 30.0,
            "4 servers × ~500 W × 4 mK/W ≈ +8 °C, got {inlet_leaky}"
        );
        assert!(die_leaky > die_sealed);
    }

    #[test]
    fn fleet_energy_is_sum_of_servers() {
        let mut fleet = Fleet::new(ServerConfig::default(), 2, 0.0, 3).unwrap();
        fleet.command_all(Rpm::new(3000.0));
        for _ in 0..300 {
            fleet
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        let sum: f64 = (0..2)
            .map(|i| fleet.server(i).unwrap().total_energy().value())
            .sum();
        assert!((fleet.total_energy().value() - sum).abs() < 1e-9);
        // Different sensor seeds per server, same physics.
        let a = fleet.server(0).unwrap().measured_cpu_temps();
        let b = fleet.server(1).unwrap().measured_cpu_temps();
        assert_ne!(a, b, "per-server sensor streams must differ");
    }

    #[test]
    fn per_server_fan_faults_split_factorizations() {
        let mut fleet = Fleet::new(ServerConfig::default(), 3, 0.0, 5).unwrap();
        fleet.command_all(Rpm::new(3000.0));
        fleet
            .inject_fan_fault(0, FanFault::Degraded { flow_scale: 0.4 })
            .unwrap();
        fleet
            .inject_fan_fault(2, FanFault::Degraded { flow_scale: 0.7 })
            .unwrap();
        for _ in 0..1_200 {
            fleet
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        // Three delivered flows, three flow classes — each solves
        // through its own factorization (transient slew signatures may
        // linger in the cache).
        assert!(fleet.batch_group_count() >= 3);
        let starved = fleet.server(0).unwrap().max_die_temperature();
        let partial = fleet.server(2).unwrap().max_die_temperature();
        let healthy = fleet.server(1).unwrap().max_die_temperature();
        assert!(starved > partial && partial > healthy);
        assert!(starved.degrees() - healthy.degrees() > 10.0);
    }

    #[test]
    fn batched_fleet_bit_identical_to_scalar_server_loop() {
        // The batch engine must not change the physics: a fleet stepped
        // through resident packed storage and shared factorizations
        // reproduces an identically seeded scalar Server::step loop bit
        // for bit — energy, temperatures and telemetry alike.
        let count = 3;
        let k = 0.002;
        let mut fleet = Fleet::new(ServerConfig::default(), count, k, 11).unwrap();
        fleet.command_all(Rpm::new(2700.0));

        let config = ServerConfig::default();
        let mut reference: Vec<Server> = (0..count)
            .map(|i| Server::new(config.clone(), 11 + i as u64).unwrap())
            .collect();
        for server in &mut reference {
            server.command_fan_speed(Rpm::new(2700.0));
        }
        let room = config.ambient;

        let dt = SimDuration::from_secs(1);
        for step in 0..600 {
            let act = if step % 120 < 60 {
                Utilization::FULL
            } else {
                Utilization::IDLE
            };
            fleet.step(dt, act).unwrap();
            // Scalar reference: same inlet model, per-server stepping.
            let total: Watts = reference.iter().map(Server::total_power).sum();
            let inlet = room + TempDelta::new(k * total.value());
            for server in &mut reference {
                server.set_ambient(inlet).unwrap();
                server.step(dt, act).unwrap();
            }
        }
        assert_eq!(fleet.batch_group_count(), 1, "one shared factorization");
        for (i, b) in reference.iter().enumerate() {
            let a = fleet.server(i).unwrap();
            assert_eq!(
                a.max_die_temperature(),
                b.max_die_temperature(),
                "server {i} die temperature"
            );
            assert_eq!(a.total_energy(), b.total_energy(), "server {i} energy");
            let a_temps = fleet.server(i).unwrap().measured_cpu_temps();
            assert_eq!(a_temps, b.measured_cpu_temps(), "server {i} telemetry");
            // Full ground-truth state (air/sink nodes included) syncs
            // lazily through the accessor.
            for socket in 0..2 {
                assert_eq!(
                    fleet.server(i).unwrap().sink_temperature(socket).unwrap(),
                    b.sink_temperature(socket).unwrap(),
                    "server {i} socket {socket} sink"
                );
                assert_eq!(
                    fleet.server(i).unwrap().air_temperature(socket).unwrap(),
                    b.air_temperature(socket).unwrap(),
                    "server {i} socket {socket} air"
                );
            }
        }
    }

    #[test]
    fn fleet_results_bit_identical_across_thread_and_shard_counts() {
        // The work partition is a pure performance knob: any thread
        // count and shard width must reproduce the exact same fleet
        // trajectory. 33 servers so multi-shard plans actually split.
        let run = |threads: usize, min_width: usize| {
            let configs = vec![ServerConfig::default(); 33];
            let plan = ShardPlan::new(threads).with_min_lanes_per_shard(min_width);
            let mut fleet = Fleet::with_plan(&configs, 0.001, 21, plan).unwrap();
            fleet.command_all(Rpm::new(2700.0));
            let dt = SimDuration::from_secs(1);
            for step in 0..150 {
                let act = if step % 40 < 20 {
                    Utilization::FULL
                } else {
                    Utilization::IDLE
                };
                fleet.step(dt, act).unwrap();
            }
            let telemetry: Vec<_> = (0..33)
                .map(|i| fleet.server(i).unwrap().measured_cpu_temps())
                .collect();
            (fleet.total_energy(), fleet.max_die_temperature(), telemetry)
        };
        let reference = run(1, 16);
        for (threads, width) in [(2, 4), (8, 1), (3, 7)] {
            let got = run(threads, width);
            assert_eq!(got.0, reference.0, "energy, threads {threads}");
            assert_eq!(got.1, reference.1, "die temp, threads {threads}");
            assert_eq!(got.2, reference.2, "telemetry, threads {threads}");
        }
    }

    #[test]
    fn heterogeneous_fleet_batches_within_hash_groups() {
        // A mixed-SKU rack: single-socket and dual-socket servers.
        // Each SKU batches through its own shared factorization and the
        // trajectories stay bit-identical to a scalar loop.
        let one_socket = ServerConfig {
            sockets: 1,
            process_sigma: vec![1.0],
            ..ServerConfig::default()
        };
        let two_socket = ServerConfig::default();
        let configs: Vec<ServerConfig> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    one_socket.clone()
                } else {
                    two_socket.clone()
                }
            })
            .collect();
        let k = 0.001;
        let mut fleet = Fleet::from_configs(&configs, k, 31).unwrap();
        assert_eq!(fleet.hash_group_count(), 2, "two SKUs, two hash groups");
        fleet.command_all(Rpm::new(3000.0));

        let mut reference: Vec<Server> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| Server::new(c.clone(), 31 + i as u64).unwrap())
            .collect();
        for server in &mut reference {
            server.command_fan_speed(Rpm::new(3000.0));
        }
        let room = configs[0].ambient;
        let dt = SimDuration::from_secs(1);
        for _ in 0..400 {
            fleet.step(dt, Utilization::FULL).unwrap();
            let total: Watts = reference.iter().map(Server::total_power).sum();
            let inlet = room + TempDelta::new(k * total.value());
            for server in &mut reference {
                server.set_ambient(inlet).unwrap();
                server.step(dt, Utilization::FULL).unwrap();
            }
        }
        assert_eq!(
            fleet.batch_group_count(),
            2,
            "one shared factorization per SKU"
        );
        for (i, b) in reference.iter().enumerate() {
            let a = fleet.server(i).unwrap();
            assert_eq!(
                a.max_die_temperature(),
                b.max_die_temperature(),
                "server {i} die temperature"
            );
            assert_eq!(a.total_energy(), b.total_energy(), "server {i} energy");
            assert_eq!(
                fleet.server(i).unwrap().measured_cpu_temps(),
                b.measured_cpu_temps(),
                "server {i} telemetry"
            );
        }
    }

    #[test]
    fn hetero_group_fan_divergence_splits_and_recovers() {
        // A *non-first* hash group whose fans diverge must solve its
        // flow classes in sub-slice coordinates, rejoin one class when
        // the fault clears, and stay bit-identical throughout.
        let one_socket = ServerConfig {
            sockets: 1,
            process_sigma: vec![1.0],
            ..ServerConfig::default()
        };
        let two_socket = ServerConfig::default();
        let configs: Vec<ServerConfig> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    one_socket.clone()
                } else {
                    two_socket.clone()
                }
            })
            .collect();
        let mut fleet = Fleet::from_configs(&configs, 0.0, 17).unwrap();
        assert_eq!(fleet.hash_group_count(), 2);
        let mut reference: Vec<Server> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| Server::new(c.clone(), 17 + i as u64).unwrap())
            .collect();
        let room = configs[0].ambient;
        let dt = SimDuration::from_secs(1);
        let run = |fleet: &mut Fleet, reference: &mut [Server], steps: usize| {
            for _ in 0..steps {
                fleet.step(dt, Utilization::FULL).unwrap();
                for server in reference.iter_mut() {
                    server.set_ambient(room).unwrap();
                    server.step(dt, Utilization::FULL).unwrap();
                }
            }
        };
        fleet.command_all(Rpm::new(3000.0));
        reference
            .iter_mut()
            .for_each(|s| s.command_fan_speed(Rpm::new(3000.0)));
        run(&mut fleet, &mut reference, 120);
        // Diverge fans inside the *second* storage group (the 2-socket
        // SKU sits after the 1-socket run): one starved, one stuck.
        let faults = [
            (1, FanFault::Degraded { flow_scale: 0.35 }),
            (3, FanFault::Stuck),
        ];
        for (i, fault) in faults {
            fleet.inject_fan_fault(i, fault).unwrap();
            reference[i].inject_fan_fault(fault);
        }
        fleet.command_all(Rpm::new(4200.0));
        reference
            .iter_mut()
            .for_each(|s| s.command_fan_speed(Rpm::new(4200.0)));
        run(&mut fleet, &mut reference, 600);
        let hot = fleet.server(1).unwrap().max_die_temperature();
        let cool = fleet.server(5).unwrap().max_die_temperature();
        assert!(hot.degrees() - cool.degrees() > 10.0, "fans diverged");
        // Clear both faults; the group's flows converge again.
        for i in [1, 3] {
            fleet.inject_fan_fault(i, FanFault::None).unwrap();
            reference[i].inject_fan_fault(FanFault::None);
        }
        fleet.command_all(Rpm::new(4200.0));
        reference
            .iter_mut()
            .for_each(|s| s.command_fan_speed(Rpm::new(4200.0)));
        run(&mut fleet, &mut reference, 300);
        for (i, b) in reference.iter().enumerate() {
            let a = fleet.server(i).unwrap();
            assert_eq!(
                a.max_die_temperature(),
                b.max_die_temperature(),
                "server {i} die temperature"
            );
            assert_eq!(a.total_energy(), b.total_energy(), "server {i} energy");
            assert_eq!(a.actual_rpm(), b.actual_rpm(), "server {i} fans");
            assert_eq!(a.trace().entries(), b.trace().entries(), "server {i} trace");
        }
    }

    #[test]
    fn die_temps_view_reads_packed_blocks_without_eviction() {
        let mut fleet = Fleet::new(ServerConfig::default(), 5, 0.001, 19).unwrap();
        for _ in 0..200 {
            fleet
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        // The view (read from the packed blocks) must agree with the
        // full per-server accessor (which forces a lane sync)…
        let mut view = Vec::new();
        fleet.die_temps_view(&mut view);
        assert_eq!(view.len(), 5);
        for (i, &t) in view.iter().enumerate() {
            assert_eq!(
                t,
                fleet.server(i).unwrap().max_die_temperature(),
                "server {i}"
            );
        }
        // …and reading it must not have perturbed anything.
        let mut again = Vec::new();
        fleet.die_temps_view(&mut again);
        assert_eq!(view, again);
        assert_eq!(
            fleet.max_die_temperature(),
            view.iter()
                .copied()
                .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
        );
    }

    #[test]
    fn degraded_fan_fault_heats_the_faulted_server() {
        let mut fleet = Fleet::new(ServerConfig::default(), 3, 0.0, 23).unwrap();
        fleet.command_all(Rpm::new(3000.0));
        for _ in 0..300 {
            fleet
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        fleet
            .inject_fan_fault(1, FanFault::Degraded { flow_scale: 0.3 })
            .unwrap();
        assert_eq!(
            fleet.fan_fault(1),
            Some(FanFault::Degraded { flow_scale: 0.3 })
        );
        assert_eq!(fleet.fan_fault(0), Some(FanFault::None));
        for _ in 0..900 {
            fleet
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        let faulted = fleet.server(1).unwrap().max_die_temperature();
        let healthy = fleet.server(0).unwrap().max_die_temperature();
        assert!(
            faulted.degrees() > healthy.degrees() + 5.0,
            "30% airflow must run visibly hotter: {faulted} vs {healthy}"
        );
        // Clearing the fault lets the server cool back toward its
        // neighbours. The excursion tripped the thermal failsafe
        // (fans forced to max, commands dropped while engaged), so
        // keep re-commanding the fleet speed as it cools.
        fleet.inject_fan_fault(1, FanFault::None).unwrap();
        for i in 0..1_500 {
            if i % 100 == 0 {
                fleet.command_all(Rpm::new(3000.0));
            }
            fleet
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        let recovered = fleet.server(1).unwrap().max_die_temperature();
        let healthy = fleet.server(0).unwrap().max_die_temperature();
        assert!(
            (recovered.degrees() - healthy.degrees()).abs() < 1.0,
            "cleared fault must converge back: {recovered} vs {healthy}"
        );
        // Validation.
        assert!(fleet.inject_fan_fault(9, FanFault::Stuck).is_err());
        assert!(fleet
            .inject_fan_fault(0, FanFault::Degraded { flow_scale: 2.0 })
            .is_err());
        assert_eq!(fleet.fan_fault(9), None);
    }

    #[test]
    fn stuck_fans_ignore_fleet_commands() {
        let mut fleet = Fleet::new(ServerConfig::default(), 2, 0.0, 29).unwrap();
        fleet.command_all(Rpm::new(1800.0));
        for _ in 0..60 {
            fleet
                .step(SimDuration::from_secs(1), Utilization::IDLE)
                .unwrap();
        }
        fleet.inject_fan_fault(0, FanFault::Stuck).unwrap();
        fleet.command_all(Rpm::new(4200.0));
        for _ in 0..60 {
            fleet
                .step(SimDuration::from_secs(1), Utilization::IDLE)
                .unwrap();
        }
        let stuck = fleet.server(0).unwrap().actual_rpm();
        let healthy = fleet.server(1).unwrap().actual_rpm();
        assert_eq!(stuck, Rpm::new(1800.0), "stuck bank holds speed");
        assert_eq!(healthy, Rpm::new(4200.0));
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let fingerprint = |fleet: &mut Fleet| {
            let temps: Vec<u64> = (0..fleet.len())
                .map(|i| {
                    fleet
                        .server(i)
                        .unwrap()
                        .max_die_temperature()
                        .degrees()
                        .to_bits()
                })
                .collect();
            (fleet.total_energy().value().to_bits(), temps)
        };
        let schedule = |step: u64| {
            if step % 60 < 30 {
                Utilization::FULL
            } else {
                Utilization::saturating_from_fraction(0.3)
            }
        };
        let dt = SimDuration::from_secs(1);
        let configs = vec![ServerConfig::default(); 5];

        // Uninterrupted reference.
        let mut reference = Fleet::from_configs(&configs, 0.001, 37).unwrap();
        reference.command_all(Rpm::new(2400.0));
        for step in 0..200 {
            reference.step(dt, schedule(step)).unwrap();
        }
        let want = fingerprint(&mut reference);

        // Checkpoint mid-run (with a fan fault in flight), restore into
        // a *fresh* fleet under a different thread plan, continue.
        let mut live = Fleet::from_configs(&configs, 0.001, 37).unwrap();
        live.command_all(Rpm::new(2400.0));
        for step in 0..100 {
            live.step(dt, schedule(step)).unwrap();
        }
        let snap = live.checkpoint();
        assert_eq!(snap.len(), 5);
        assert!(!snap.is_empty());
        // Taking the checkpoint must not perturb the live run.
        for step in 100..200 {
            live.step(dt, schedule(step)).unwrap();
        }
        assert_eq!(fingerprint(&mut live), want, "checkpoint perturbed the run");

        let plan = ShardPlan::new(4).with_min_lanes_per_shard(1);
        let mut restored = Fleet::with_plan(&configs, 0.001, 99, plan).unwrap();
        restored.restore(&snap).unwrap();
        for step in 100..200 {
            restored.step(dt, schedule(step)).unwrap();
        }
        assert_eq!(fingerprint(&mut restored), want, "restored run diverged");

        // Mismatched fleets are rejected.
        let mut small = Fleet::from_configs(&configs[..2], 0.001, 37).unwrap();
        assert!(small.restore(&snap).is_err());
    }

    #[test]
    fn sync_states_exposes_packed_temperatures() {
        let mut fleet = Fleet::new(ServerConfig::default(), 3, 0.0, 13).unwrap();
        for _ in 0..120 {
            fleet
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        fleet.sync_states();
        // After a sync every stored server is current with no lane read
        // in between: its dies match the packed blocks, its air nodes
        // warmed above ambient and its energy is the lane's.
        let mut view = Vec::new();
        fleet.die_temps_view(&mut view);
        let mut energy = Joules::ZERO;
        for (i, &storage) in fleet.index_map.iter().enumerate() {
            let server = &fleet.servers[storage];
            assert_eq!(server.max_die_temperature(), view[i], "server {i}");
            let air = server.air_temperature(0).unwrap();
            assert!(air.degrees() > 24.0, "air node stale at {air}");
            energy += server.total_energy();
        }
        assert_eq!(energy, fleet.total_energy());
    }
}
