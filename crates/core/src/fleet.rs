//! The lane store every server steps in, and the one-rack [`Fleet`].
//!
//! A lane store holds a run of racks — one for a [`Fleet`], every
//! rack of a [`Room`](crate::room::Room) — and steps all of their
//! servers through the shared-factorization batch engine. The physics
//! is bit-identical to an identically seeded scalar `Server::step` loop
//! with each server on its rack's inlet: fan dynamics, failsafe, power
//! models and telemetry run through the same platform methods; only
//! where the state lives and how the thermal integration is batched
//! differ.
//!
//! The store works in three layers:
//!
//! - **Hash groups.** Servers are partitioned by their thermal
//!   network's [`structure_hash`](leakctl_thermal::ThermalNetwork::structure_hash)
//!   (mixed-SKU fleets via [`Fleet::from_configs`]), across all racks;
//!   each group has one [`BatchSolver`], one factorization cache and one
//!   [`LaneTemplate`]. Racks differ only in their inlet and activity, so
//!   each rack is a contiguous lane range of its group and reads its own
//!   activity and its own boundary-source column.
//! - **Tiles.** A group's lanes live in cache-sized tiles: whole racks,
//!   closed at the first rack boundary at or past 32 lanes.
//!   A tile keeps its temperatures packed slot-major ([`PackedLanes`]),
//!   its per-step dynamics — fan banks, failsafes, clocks, accounting,
//!   power parameters — in [`DynamicsLanes`] arrays beside them, and its
//!   servers. Each step, a tile runs begin → solve → finish while it is
//!   still in cache: the solve is one [`SharedKernel`] pass over the
//!   tile when its lanes deliver one chassis flow, or one pass per flow
//!   class over that class's lanes when a fan fault or a failsafe trip
//!   made them diverge. No `Server` is touched except by the CSTH polls
//!   that fall due; a server object is written back from its lane when
//!   something reads it ([`Fleet::server`], [`Fleet::checkpoint`]).
//! - **Prepares and workers.** Each step prepares every flow class once
//!   for the whole store: a factorization from the cache and one
//!   boundary-source column per rack. The classes the last step ran are
//!   prepared up front, so a settled step solves each tile right after
//!   its begin; a tile that meets a new class waits, the class is
//!   prepared, and the tile finishes. The tiles are split across workers
//!   by the store's [`ShardPlan`] over lanes (thread count from
//!   `LEAKCTL_THREADS` or the machine), each worker running its tiles on
//!   one [`std::thread::scope`] thread. Results are bit-identical for
//!   any thread or shard count.
//!
//! A [`Fleet`] is the one-rack store with the original inlet coupling:
//! all servers share one inlet whose temperature drifts with the rack's
//! total heat (exhaust recirculation) — the "real-life data center"
//! setting the paper's conclusion points toward.
//!
//! [`SharedKernel`]: leakctl_thermal::SharedKernel

use std::ops::Range;
use std::thread;

use leakctl_platform::{
    DynamicsLanes, FanFault, LaneTemplate, PlatformError, Server, ServerConfig,
};
use leakctl_thermal::{
    group_by_structure_hash, BatchSolver, PackedLanes, Prepared, RackSpan, ShardPlan, SharedKernel,
    ThermalState,
};
use leakctl_units::{AirFlow, Celsius, Joules, Rpm, SimDuration, TempDelta, Utilization, Watts};

use crate::error::CoreError;

/// The fewest lanes a tile closes at: a tile takes whole racks until it
/// holds at least this many lanes (a worker's last tile takes what is
/// left), so two-server racks step 16 to a tile while a 48-server rack
/// is a tile of its own.
const TILE_LANES: usize = 32;

/// Where a server lives: its group, its tile in the group, and its lane
/// in the tile.
#[derive(Debug, Clone, Copy)]
struct LaneRef {
    group: usize,
    tile: usize,
    offset: usize,
}

/// A cache-sized run of one group's lanes with everything a step
/// touches: packed temperatures, dynamics records and the servers.
#[derive(Debug)]
struct Tile {
    temps: PackedLanes,
    dynamics: DynamicsLanes,
    /// The tile's servers, lane `i` in `servers[i]`.
    servers: Vec<Server>,
    /// The tile's lanes by rack.
    spans: Vec<RackSpan>,
    /// The distinct flows the lanes deliver over the current step, in
    /// first-seen order (set by [`Tile::begin`]).
    flows: Vec<AirFlow>,
    /// `true` from a begin whose flows the step had not prepared until
    /// the solve and finish that follow their prepare.
    waiting: bool,
}

impl Tile {
    fn load(servers: Vec<Server>, spans: Vec<RackSpan>) -> Self {
        let states: Vec<ThermalState> = servers.iter().map(|s| s.thermal_state().clone()).collect();
        Self {
            temps: PackedLanes::pack(&states),
            dynamics: DynamicsLanes::load(&servers),
            servers,
            spans,
            flows: Vec::new(),
            waiting: false,
        }
    }

    /// Writes lane `lane` back into its server.
    fn store_lane(&mut self, lane: usize, inlet: Option<Celsius>) {
        self.dynamics
            .store_lane(lane, &self.temps, inlet, &mut self.servers[lane]);
    }

    /// Phase 1: begin every lane on its rack's activity, trace the
    /// failsafe transitions and collect the step's flows.
    fn begin(&mut self, dt: SimDuration, activities: &[Utilization]) {
        let flow = self
            .dynamics
            .begin(&self.temps, dt, &self.spans, activities);
        self.dynamics.flush_events(&mut self.servers);
        self.flows.clear();
        match flow {
            Some(flow) => self.flows.push(flow),
            None => {
                for flow in self.dynamics.flows() {
                    if !self.flows.iter().any(|&seen| same_bits(seen, flow)) {
                        self.flows.push(flow);
                    }
                }
            }
        }
    }

    /// The solve, when `kernels` holds every flow of the tile (returns
    /// `false`, touching nothing, otherwise): one pass over the tile
    /// for one flow, else one pass per class over its lanes.
    fn solve(&mut self, kernels: &[(AirFlow, Kernel<'_>)]) -> Result<bool, PlatformError> {
        let find = |flow: AirFlow| {
            kernels
                .iter()
                .find(|(class, _)| same_bits(*class, flow))
                .map(|(_, kernel)| kernel)
        };
        if self.flows.iter().any(|&flow| find(flow).is_none()) {
            return Ok(false);
        }
        let sources = self.dynamics.sources();
        if let [flow] = self.flows[..] {
            if let Some(kernel) = find(flow) {
                kernel.step_racks(&mut self.temps, sources, &self.spans)?;
            }
            return Ok(true);
        }
        let mut members = Vec::new();
        for &class in &self.flows {
            members.clear();
            members.extend(
                self.dynamics
                    .flows()
                    .enumerate()
                    .filter(|&(_, flow)| same_bits(flow, class))
                    .map(|(lane, _)| lane),
            );
            if let Some(kernel) = find(class) {
                kernel.step_lanes(&mut self.temps, sources, &self.spans, &members)?;
            }
        }
        Ok(true)
    }

    /// Phase 3: finish every lane and record the CSTH frames now due.
    fn finish(&mut self, dt: SimDuration) -> Result<(), PlatformError> {
        if self.dynamics.finish(&self.temps, dt) {
            self.dynamics.poll(&self.temps, &mut self.servers)?;
        }
        Ok(())
    }
}

type Kernel<'a> = SharedKernel<'a, leakctl_thermal::AutoBackend>;

/// A flow class prepared for the current step: its factorization and
/// one boundary-source column per rack.
#[derive(Debug)]
struct Class {
    flow: AirFlow,
    prepared: Prepared,
    bounds: Vec<f64>,
}

/// Prepares flow class `flow` for a step of `dt` on `inlets`: sets the
/// template to the flow, resolves the factorization and writes one
/// boundary-source column per rack into `bounds`.
fn prepare(
    solver: &mut BatchSolver,
    template: &mut LaneTemplate,
    flow: AirFlow,
    dt: SimDuration,
    inlets: &[Celsius],
    bounds: &mut Vec<f64>,
) -> Result<Prepared, CoreError> {
    template.set_flow(flow)?;
    let prepared = solver
        .prepare(template.network(), dt)
        .map_err(PlatformError::from)?;
    template.boundary_sources_into(inlets, bounds);
    Ok(prepared)
}

/// One structure-hash group: its tiles, split across workers, and the
/// solver and template its flow classes prepare through.
#[derive(Debug)]
struct Group {
    solver: BatchSolver,
    /// The group's representative network, set to each class's flow.
    template: LaneTemplate,
    tiles: Vec<Tile>,
    /// Each worker's contiguous run of tiles.
    shards: Vec<Range<usize>>,
    /// The flow classes of the last step — the classes the next step
    /// prepares first.
    classes: Vec<Class>,
}

impl Group {
    fn new(tiles: Vec<Tile>, shards: Vec<Range<usize>>) -> Self {
        let representative = &tiles[0].servers[0];
        Self {
            solver: BatchSolver::new(representative.thermal_network()),
            template: LaneTemplate::of(representative),
            tiles,
            shards,
            classes: Vec::new(),
        }
    }

    /// One step of every tile: the last step's classes are prepared,
    /// every tile begins and — when the step prepared its flows —
    /// solves and finishes at once; the classes no tile ran are
    /// dropped; then any new classes are prepared and the tiles that
    /// waited for them solve and finish.
    fn step(
        &mut self,
        dt: SimDuration,
        activities: &[Utilization],
        inlets: &[Celsius],
    ) -> Result<(), CoreError> {
        self.solver.begin_step();
        for class in &mut self.classes {
            class.prepared = prepare(
                &mut self.solver,
                &mut self.template,
                class.flow,
                dt,
                inlets,
                &mut class.bounds,
            )?;
        }
        self.pass(dt, activities, true)?;
        // A class no tile ran (a slew moved the flows on) gives its
        // factorization back, so the new classes can recycle it.
        let tiles = &self.tiles;
        let ran = |flow: AirFlow| {
            tiles
                .iter()
                .any(|tile| tile.flows.iter().any(|&f| same_bits(f, flow)))
        };
        let mut i = 0;
        while i < self.classes.len() {
            if ran(self.classes[i].flow) {
                i += 1;
            } else {
                self.solver.release(self.classes.swap_remove(i).prepared);
            }
        }
        let mut waited = false;
        for tile in self.tiles.iter().filter(|tile| tile.waiting) {
            waited = true;
            for &flow in &tile.flows {
                if self.classes.iter().any(|c| same_bits(c.flow, flow)) {
                    continue;
                }
                let mut bounds = Vec::new();
                let prepared = prepare(
                    &mut self.solver,
                    &mut self.template,
                    flow,
                    dt,
                    inlets,
                    &mut bounds,
                )?;
                self.classes.push(Class {
                    flow,
                    prepared,
                    bounds,
                });
            }
        }
        if waited {
            self.pass(dt, activities, false)?;
        }
        Ok(())
    }

    /// One parallel pass over the tiles, each worker on its shard: the
    /// first pass begins every tile, a later one takes only the tiles
    /// still waiting; a tile whose flows all have a prepared class
    /// solves and finishes.
    fn pass(
        &mut self,
        dt: SimDuration,
        activities: &[Utilization],
        first: bool,
    ) -> Result<(), CoreError> {
        let names = self.template.network();
        let kernels: Vec<(AirFlow, Kernel<'_>)> = self
            .classes
            .iter()
            .map(|c| (c.flow, self.solver.kernel(&c.prepared, &c.bounds, names)))
            .collect();
        run_sharded(&mut self.tiles, &self.shards, |tiles, _| {
            for tile in tiles {
                if first {
                    tile.begin(dt, activities);
                } else if !tile.waiting {
                    continue;
                }
                tile.waiting = !tile.solve(&kernels)?;
                if !tile.waiting {
                    tile.finish(dt)?;
                }
            }
            Ok::<(), CoreError>(())
        })
    }
}

/// `true` when two flows are equal bit for bit.
fn same_bits(a: AirFlow, b: AirFlow) -> bool {
    a.value().to_bits() == b.value().to_bits()
}

/// The servers of equal-size racks in one set of lanes (see the module
/// docs): a [`Fleet`] is one rack, a [`Room`](crate::room::Room) every
/// rack of its floor. Server indices are original construction order;
/// rack `r` is servers `r·rack_len..(r+1)·rack_len`.
#[derive(Debug)]
pub(crate) struct LaneStore {
    /// `lanes[original]`: where the server lives.
    lanes: Vec<LaneRef>,
    rack_len: usize,
    groups: Vec<Group>,
    /// Each rack's inlet over the last step (empty before the first
    /// step, when every server keeps its own ambient boundary).
    inlets: Vec<Celsius>,
}

impl LaneStore {
    /// Loads `servers` (at least one; racks of `rack_len`, which must
    /// divide the count) into tiles on `plan`'s partition of each
    /// group's lanes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for an empty store or racks that
    /// do not divide it.
    pub(crate) fn new(
        servers: Vec<Server>,
        rack_len: usize,
        plan: &ShardPlan,
    ) -> Result<Self, CoreError> {
        if servers.is_empty() || rack_len == 0 || !servers.len().is_multiple_of(rack_len) {
            return Err(CoreError::Invalid {
                what: "a lane store needs whole, non-empty racks".to_owned(),
            });
        }
        let count = servers.len();
        // Group original indices by first-seen structure hash (the
        // shared `group_by_structure_hash` policy); within a group the
        // lanes keep original order, so each rack's lanes are
        // contiguous.
        let member_lists =
            group_by_structure_hash(servers.iter().map(|s| s.thermal_network().structure_hash()));
        let mut slots: Vec<Option<Server>> = servers.into_iter().map(Some).collect();
        let mut lanes = vec![
            LaneRef {
                group: 0,
                tile: 0,
                offset: 0,
            };
            count
        ];
        let mut groups = Vec::with_capacity(member_lists.len());
        for (g, members) in member_lists.iter().enumerate() {
            let rack = |lane: usize| members[lane] / rack_len;
            let mut tiles = Vec::new();
            let mut shards = Vec::new();
            for range in plan.ranges(members.len()) {
                let first = tiles.len();
                let mut start = range.start;
                for end in range.start + 1..=range.end {
                    let rack_ends = end == range.end || rack(end) != rack(end - 1);
                    if !(rack_ends && (end - start >= TILE_LANES || end == range.end)) {
                        continue;
                    }
                    let mut servers = Vec::with_capacity(end - start);
                    let mut spans: Vec<RackSpan> = Vec::new();
                    for (offset, lane) in (start..end).enumerate() {
                        let original = members[lane];
                        let server = slots[original].take().ok_or_else(|| CoreError::Invalid {
                            what: "internal: server storage permutation is not a bijection"
                                .to_owned(),
                        })?;
                        servers.push(server);
                        lanes[original] = LaneRef {
                            group: g,
                            tile: tiles.len(),
                            offset,
                        };
                        match spans.last_mut() {
                            Some(span) if span.rack == rack(lane) => span.lanes.end = offset + 1,
                            _ => spans.push(RackSpan {
                                lanes: offset..offset + 1,
                                rack: rack(lane),
                            }),
                        }
                    }
                    tiles.push(Tile::load(servers, spans));
                    start = end;
                }
                shards.push(first..tiles.len());
            }
            groups.push(Group::new(tiles, shards));
        }
        Ok(Self {
            lanes,
            rack_len,
            groups,
            inlets: Vec::new(),
        })
    }

    /// Number of servers.
    pub(crate) fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Rack `rack`'s servers, as original indices.
    fn rack(&self, rack: usize) -> Range<usize> {
        rack * self.rack_len..(rack + 1) * self.rack_len
    }

    /// Server `original`'s tile and lane in it.
    fn tile(&self, original: usize) -> (&Tile, usize) {
        let lane = self.lanes[original];
        (&self.groups[lane.group].tiles[lane.tile], lane.offset)
    }

    /// Commands every server's fans (see [`Fleet::command_all`]).
    pub(crate) fn command_all(&mut self, rpm: Rpm) {
        for tile in self.groups.iter_mut().flat_map(|g| &mut g.tiles) {
            tile.dynamics.command_all(rpm, &mut tile.servers);
        }
    }

    /// Server `original`, written back from its lane first.
    pub(crate) fn server(&mut self, original: usize) -> Option<&Server> {
        let lane = *self.lanes.get(original)?;
        let inlet = self.inlets.get(original / self.rack_len).copied();
        let tile = &mut self.groups[lane.group].tiles[lane.tile];
        tile.store_lane(lane.offset, inlet);
        Some(&tile.servers[lane.offset])
    }

    /// Injects `fault` on server `original`'s lane (the caller has
    /// validated the fault); `false` for an out-of-range server.
    pub(crate) fn inject_fan_fault(&mut self, original: usize, fault: FanFault) -> bool {
        let Some(&lane) = self.lanes.get(original) else {
            return false;
        };
        let tile = &mut self.groups[lane.group].tiles[lane.tile];
        tile.dynamics
            .inject_fan_fault(lane.offset, fault, &mut tile.servers[lane.offset]);
        true
    }

    /// Server `original`'s injected fan fault.
    pub(crate) fn fan_fault(&self, original: usize) -> Option<FanFault> {
        (original < self.len()).then(|| {
            let (tile, lane) = self.tile(original);
            tile.dynamics.record(lane).fan_fault()
        })
    }

    /// Rack `rack`'s power (system + fans) at the end of the last step,
    /// summed in original server order: storage order groups servers by
    /// hash, and float addition is order-sensitive, so this is the sum a
    /// scalar loop over the rack's servers gives.
    pub(crate) fn rack_power(&self, rack: usize) -> Watts {
        Watts::new(
            self.rack(rack)
                .map(|original| {
                    let (tile, lane) = self.tile(original);
                    tile.dynamics.power(lane).value()
                })
                .sum(),
        )
    }

    /// Rack `rack`'s energy since construction (original server order,
    /// see [`Self::rack_power`]).
    pub(crate) fn rack_energy(&self, rack: usize) -> Joules {
        self.rack(rack)
            .map(|original| {
                let (tile, lane) = self.tile(original);
                tile.dynamics.record(lane).total_energy()
            })
            .sum()
    }

    /// Rack `rack`'s hottest die, from the packed blocks.
    pub(crate) fn rack_max_die_temperature(&self, rack: usize) -> Celsius {
        self.rack(rack)
            .map(|original| self.die_temperature(original))
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
    }

    /// The hottest die of the store, scanning the tiles' packed blocks
    /// in storage order (a maximum does not depend on the order).
    pub(crate) fn max_die_temperature(&self) -> Celsius {
        self.groups
            .iter()
            .flat_map(|g| &g.tiles)
            .flat_map(|tile| {
                (0..tile.servers.len())
                    .map(|lane| tile.dynamics.max_die_temperature(&tile.temps, lane))
            })
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
    }

    /// Server `original`'s hottest die, from its tile's packed block.
    fn die_temperature(&self, original: usize) -> Celsius {
        let (tile, lane) = self.tile(original);
        tile.dynamics.max_die_temperature(&tile.temps, lane)
    }

    /// Resets every server's energy, peak-power and timing accumulators.
    pub(crate) fn reset_accounting(&mut self) {
        for tile in self.groups.iter_mut().flat_map(|g| &mut g.tiles) {
            tile.dynamics.reset_accounting();
        }
    }

    /// Snapshots every server in original order, each written back from
    /// its lane first.
    pub(crate) fn checkpoint(&mut self) -> FleetCheckpoint {
        for tile in self.groups.iter_mut().flat_map(|g| &mut g.tiles) {
            for span in tile.spans.clone() {
                let inlet = self.inlets.get(span.rack).copied();
                for lane in span.lanes {
                    tile.store_lane(lane, inlet);
                }
            }
        }
        FleetCheckpoint {
            servers: (0..self.len())
                .map(|original| {
                    let (tile, lane) = self.tile(original);
                    tile.servers[lane].clone()
                })
                .collect(),
        }
    }

    /// Checks that `checkpoint` matches this store's servers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] when the server count or a thermal
    /// topology differs.
    pub(crate) fn can_restore(&self, checkpoint: &FleetCheckpoint) -> Result<(), CoreError> {
        if checkpoint.servers.len() != self.len() {
            return Err(CoreError::Invalid {
                what: format!(
                    "checkpoint holds {} servers, fleet has {}",
                    checkpoint.servers.len(),
                    self.len()
                ),
            });
        }
        for (original, snap) in checkpoint.servers.iter().enumerate() {
            let (tile, lane) = self.tile(original);
            if snap.thermal_network().structure_hash()
                != tile.servers[lane].thermal_network().structure_hash()
            {
                return Err(CoreError::Invalid {
                    what: format!("checkpoint server {original} has a different thermal topology"),
                });
            }
        }
        Ok(())
    }

    /// Restores `checkpoint` and reloads every tile from its servers;
    /// until the next step each server keeps the ambient boundary the
    /// checkpoint holds.
    ///
    /// # Errors
    ///
    /// As [`Self::can_restore`]; nothing is touched on error.
    pub(crate) fn restore(&mut self, checkpoint: &FleetCheckpoint) -> Result<(), CoreError> {
        self.can_restore(checkpoint)?;
        self.inlets.clear();
        for (original, snap) in checkpoint.servers.iter().enumerate() {
            let lane = self.lanes[original];
            self.groups[lane.group].tiles[lane.tile].servers[lane.offset] = snap.clone();
        }
        for tile in self.groups.iter_mut().flat_map(|g| &mut g.tiles) {
            *tile = Tile::load(
                std::mem::take(&mut tile.servers),
                std::mem::take(&mut tile.spans),
            );
        }
        Ok(())
    }

    /// Advances every server by `dt`, rack `r` at `activities[r]` on
    /// inlet `inlets[r]`.
    ///
    /// # Errors
    ///
    /// Propagates platform and solver failures.
    pub(crate) fn step(
        &mut self,
        dt: SimDuration,
        activities: &[Utilization],
        inlets: &[Celsius],
    ) -> Result<(), CoreError> {
        self.inlets.clear();
        self.inlets.extend_from_slice(inlets);
        if dt.is_zero() {
            return Ok(());
        }
        for group in &mut self.groups {
            group.step(dt, activities, inlets)?;
        }
        Ok(())
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
/// A fleet is the one-rack lane store (see the module docs): every
/// step batches each structure-hash group's backward-Euler solves
/// through shared factorizations over packed, tiled lanes.
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
    store: LaneStore,
    room: Celsius,
    recirculation_k_per_w: f64,
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
    /// step spawns its scoped workers once per pass, so shards need
    /// enough per-server dynamics work to amortize the spawns — a wider
    /// floor than the thermal-only kernels use. [`Fleet::with_plan`]
    /// honors a caller's plan verbatim.
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
        if configs.is_empty() {
            return Err(CoreError::Invalid {
                what: "fleet needs at least one server".to_owned(),
            });
        }
        if !(recirculation_k_per_w >= 0.0 && recirculation_k_per_w.is_finite()) {
            return Err(CoreError::Invalid {
                what: "recirculation coefficient must be non-negative".to_owned(),
            });
        }
        let built = configs
            .iter()
            .enumerate()
            .map(|(i, config)| Server::new(config.clone(), seed.wrapping_add(i as u64)))
            .collect::<Result<Vec<Server>, PlatformError>>()?;
        let room = built[0].config().ambient;
        Ok(Self {
            store: LaneStore::new(built, configs.len(), &plan)?,
            room,
            recirculation_k_per_w,
        })
    }

    /// Number of servers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` when the fleet is empty (construction forbids it).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// Number of structure-hash groups batching through shared
    /// factorizations (1 for a homogeneous fleet).
    #[must_use]
    pub fn hash_group_count(&self) -> usize {
        self.store.groups.len()
    }

    /// Commands every server's fans (a command takes effect from the
    /// next step: command latency, then slew). A server whose failsafe
    /// is engaged ignores it and traces that.
    pub fn command_all(&mut self, rpm: Rpm) {
        self.store.command_all(rpm);
    }

    /// Access to an individual server (e.g. to read per-server
    /// telemetry or ground truth). Takes `&mut self` because the
    /// server's state lives in its lane between steps: this writes the
    /// server's lane back first.
    #[must_use]
    pub fn server(&mut self, index: usize) -> Option<&Server> {
        self.store.server(index)
    }

    /// Number of shared factorizations currently live across the batch
    /// engines (1 while a homogeneous fleet runs one `(dt, flow)`
    /// operating point; one per flow class — and per SKU — once fan
    /// flows diverge, up to each solver's cache bound).
    #[must_use]
    pub fn batch_group_count(&self) -> usize {
        self.store
            .groups
            .iter()
            .map(|g| g.solver.group_count())
            .sum()
    }

    /// Shared factorizations computed since construction, summed over
    /// the hash-group engines (diagnostics: it stops moving once every
    /// flow class a step runs is cached).
    #[must_use]
    pub fn factorizations(&self) -> u64 {
        self.store
            .groups
            .iter()
            .map(|g| g.solver.factorizations())
            .sum()
    }

    /// Injects (or clears, with [`FanFault::None`]) a fan-bank fault
    /// on server `index`, in its lane's record. From the next step the
    /// faulted server's chassis flow diverges from its neighbours, and
    /// its tile solves one flow class at a time until the flows agree
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
        if self.store.inject_fan_fault(index, fault) {
            Ok(())
        } else {
            Err(CoreError::Invalid {
                what: format!("server index {index} out of range"),
            })
        }
    }

    /// Server `index`'s currently injected fan fault (`None` for an
    /// out-of-range index).
    #[must_use]
    pub fn fan_fault(&self, index: usize) -> Option<FanFault> {
        self.store.fan_fault(index)
    }

    /// Snapshots the full fleet — every server's thermal state, fan
    /// bank (faults included), service processor, clock, accounting
    /// and sensor RNG streams — in original index order. The lanes are
    /// written back into the servers first, so the snapshot is exact
    /// under any thread plan.
    pub fn checkpoint(&mut self) -> FleetCheckpoint {
        self.store.checkpoint()
    }

    /// Restores a [`Fleet::checkpoint`] — into this fleet or any fleet
    /// built from the same configs (any thread/shard plan) — and
    /// reloads every lane from the restored servers, so the resumed
    /// trajectory is bit-identical to the uninterrupted one.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] when the checkpoint's server
    /// count or thermal topologies do not match this fleet.
    pub fn restore(&mut self, checkpoint: &FleetCheckpoint) -> Result<(), CoreError> {
        self.store.restore(checkpoint)
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
    /// inlet temperature, replacing the scalar `T_room + r·P` drift
    /// that [`Fleet::step`] applies.
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
        self.store.step(dt, &[activity], &[inlet])
    }

    /// The current shared inlet temperature.
    #[must_use]
    pub fn inlet_temperature(&self) -> Celsius {
        let drift = TempDelta::new(self.recirculation_k_per_w * self.total_power().value());
        self.room + drift
    }

    /// Total fleet power (system + fans across all servers), summed in
    /// *original* server order, so a mixed-SKU fleet matches the scalar
    /// reference loop bit for bit. Each server contributes the
    /// end-of-step power its last step recorded (nothing changes it
    /// between steps).
    #[must_use]
    pub fn total_power(&self) -> Watts {
        self.store.rack_power(0)
    }

    /// Total fleet energy since construction (original server order,
    /// see [`Fleet::total_power`]).
    #[must_use]
    pub fn total_energy(&self) -> Joules {
        self.store.rack_energy(0)
    }

    /// Resets every server's energy, peak-power and timing
    /// accumulators (e.g. after a warm-up phase). Thermal state is
    /// untouched.
    pub fn reset_accounting(&mut self) {
        self.store.reset_accounting();
    }

    /// The hottest die anywhere in the fleet.
    #[must_use]
    pub fn max_die_temperature(&self) -> Celsius {
        self.store.max_die_temperature()
    }

    /// Every server's hottest die temperature, in original index
    /// order, appended into `out` (cleared first).
    ///
    /// Reads straight from the packed blocks — no write-back (which
    /// [`Fleet::server`] forces) — so rack-level controller loops can
    /// poll die temperatures every decision period for free.
    pub fn die_temps_view(&self, out: &mut Vec<Celsius>) {
        out.clear();
        out.extend((0..self.len()).map(|original| self.store.die_temperature(original)));
    }
}

/// A full fleet snapshot, produced by [`Fleet::checkpoint`] (and held
/// by a [`RoomCheckpoint`](crate::room::RoomCheckpoint)): server clones
/// (thermal state, fans, faults, accounting, RNG streams) in original
/// index order, restorable into any fleet or room built from the same
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
/// callers can slice per-item side arrays. Shared by the lane store's
/// tile passes and the building's room phase.
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
        let _ = fleet.checkpoint();
        // After a checkpoint every stored server is current with no
        // lane read in between: its dies match the packed blocks, its
        // air nodes warmed above ambient and its energy is the lane's.
        let mut view = Vec::new();
        fleet.die_temps_view(&mut view);
        let mut energy = Joules::ZERO;
        for (i, &die) in view.iter().enumerate() {
            let (tile, lane) = fleet.store.tile(i);
            let server = &tile.servers[lane];
            assert_eq!(server.max_die_temperature(), die, "server {i}");
            let air = server.air_temperature(0).unwrap();
            assert!(air.degrees() > 24.0, "air node stale at {air}");
            energy += server.total_energy();
        }
        assert_eq!(energy, fleet.total_energy());
    }

    #[test]
    fn settled_flow_classes_stop_factoring() {
        // 34 servers, each on its own degraded-fan scale: 34 flow
        // classes every step, more than the cache's 32. No class a step
        // prepared is evicted within it, so once the fans settle a step
        // factors nothing, and the fleet matches the scalar loop.
        let count = 34;
        let configs = vec![ServerConfig::default(); count];
        let plan = ShardPlan::new(2).with_min_lanes_per_shard(1);
        let mut fleet = Fleet::with_plan(&configs, 0.0, 41, plan).unwrap();
        let mut reference: Vec<Server> = (0..count)
            .map(|i| Server::new(ServerConfig::default(), 41 + i as u64).unwrap())
            .collect();
        fleet.command_all(Rpm::new(3000.0));
        for (i, server) in reference.iter_mut().enumerate() {
            server.command_fan_speed(Rpm::new(3000.0));
            let fault = FanFault::Degraded {
                flow_scale: 0.6 + 0.01 * i as f64,
            };
            server.inject_fan_fault(fault);
            fleet.inject_fan_fault(i, fault).unwrap();
        }
        let load = Utilization::saturating_from_fraction(0.5);
        let dt = SimDuration::from_secs(1);
        let step = |fleet: &mut Fleet, reference: &mut [Server]| {
            fleet.step(dt, load).unwrap();
            for server in reference.iter_mut() {
                server.step(dt, load).unwrap();
            }
        };
        for _ in 0..60 {
            step(&mut fleet, &mut reference);
        }
        let settled = fleet.factorizations();
        for _ in 0..20 {
            step(&mut fleet, &mut reference);
            assert_eq!(fleet.factorizations(), settled, "a settled step factors");
        }
        assert_eq!(fleet.batch_group_count(), count, "one group per class");
        for (i, want) in reference.iter().enumerate() {
            let got = fleet.server(i).unwrap();
            assert_eq!(got.thermal_state(), want.thermal_state(), "server {i}");
            assert_eq!(got.total_energy(), want.total_energy(), "server {i}");
        }
    }
}
