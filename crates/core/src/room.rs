//! A machine room: racks of servers in one lane store, coupled through
//! a coarse air-volume network ([`RoomAirModel`]).
//!
//! This is the paper's "real-life data center" setting scaled out: the
//! CRAH supply set-point, under-floor tile-flow distribution and
//! hot-aisle recirculation determine each rack's inlet, the inlet
//! drives leakage, and leakage feeds heat back into the room — the
//! coupling the leakage/cooling co-optimization argument turns on.
//!
//! Each simulated step runs an operator split:
//!
//! 1. **Air phase (serial).** Every rack's dissipated power (from the
//!    start-of-step fleet state) is injected into its hot-aisle volume
//!    and the room network advances by `dt` through the cached
//!    backward-Euler solver (sparse CSR once the room is large enough).
//! 2. **Rack phase (parallel).** Each rack reads its cold-aisle
//!    temperature as its inlet, and every server of the room advances
//!    by `dt` in one lane store (see [`crate::fleet`]): hash groups span
//!    the whole room, each flow class prepares once per step for every
//!    rack — one factorization, one boundary-source column per rack —
//!    and cache-sized tiles of whole racks run begin → solve → finish,
//!    split across workers by the room's [`ShardPlan`] over lanes.
//!    Since racks only interact through the (serial) air phase and
//!    lanes never mix in a solve, the room trajectory is
//!    **bit-identical for any thread count** (`LEAKCTL_THREADS`).
//!
//! CRAH cooling work is accounted through a chilled-water COP model
//! (`COP(T) = 0.0068·T² + 0.0008·T + 0.458`, the HP Utility Data
//! Center model widely used in thermal-aware scheduling studies), so
//! raising the supply set-point trades leakage against cooling energy —
//! the room-scale version of the paper's Fig. 3 trade-off.

use leakctl_platform::{FanFault, Server, ServerConfig};
use leakctl_thermal::{RoomAirModel, RoomAirSpec, ShardPlan};
use leakctl_units::{AirFlow, Celsius, Joules, SimDuration, Utilization, Watts};

use crate::control::{ControlAction, RoomController, RoomObservation};
use crate::drive::{Drive, Stages};
use crate::error::{CoreError, PlacementError, RoomError};
use crate::fleet::{FleetCheckpoint, LaneStore};
use crate::schedule::PlacementAction;

/// Scenario builder for a [`Room`]: floor-grid geometry, CRAH
/// placement, per-rack server fleets and the air-side couplings.
///
/// The floor is a `rows × racks_per_row` grid of racks. CRAH units sit
/// along the wall in front of row 0; each rack's share of the
/// under-floor airflow decays with its distance to the nearest CRAH
/// (`1 / (1 + d / tile_decay)`, normalized), so far corners of the
/// room run warmer — the coarse-grid stand-in for plenum pressure
/// distribution.
#[derive(Debug, Clone)]
pub struct RoomConfig {
    /// Rack rows on the floor.
    pub rows: usize,
    /// Racks per row.
    pub racks_per_row: usize,
    /// Servers per rack.
    pub servers_per_rack: usize,
    /// Configuration shared by every server.
    pub server: ServerConfig,
    /// CRAH units along the row-0 wall (placement shapes tile flows).
    pub crah_units: usize,
    /// CRAH supply (set-point) temperature.
    pub crah_supply: Celsius,
    /// Through-flow each server draws; a rack's tile flow is its
    /// placement-weighted share of `servers × airflow_per_server`.
    pub airflow_per_server: AirFlow,
    /// Hot-aisle recirculation fraction `β ∈ [0, 1)`.
    pub recirculation_fraction: f64,
    /// Distance-decay length (in rack pitches) of the tile-flow split.
    pub tile_decay: f64,
    /// CRAH efficiency curve used for the cooling-energy accounting.
    pub cop_model: CopModel,
    /// Thermal cap the per-rack die *margins* in
    /// [`RoomObservation`] are
    /// measured against (the paper's 85 °C hot-spot limit by default).
    /// Telemetry only — the room never enforces it; controllers and
    /// schedulers spend the margin.
    pub die_limit: Celsius,
    /// Base seed; server `i` of rack `r` derives its sensor streams
    /// from `seed + r·servers_per_rack + i`.
    pub seed: u64,
}

impl RoomConfig {
    /// A room of `rows × racks_per_row` racks of `servers_per_rack`
    /// default servers, with two CRAH units, an 18 °C supply, 120 CFM
    /// per server and 10 % recirculation.
    #[must_use]
    pub fn new(rows: usize, racks_per_row: usize, servers_per_rack: usize) -> Self {
        Self {
            rows,
            racks_per_row,
            servers_per_rack,
            server: ServerConfig::default(),
            crah_units: 2,
            crah_supply: Celsius::new(18.0),
            airflow_per_server: AirFlow::from_cfm(120.0),
            recirculation_fraction: 0.1,
            tile_decay: 6.0,
            cop_model: CopModel::HpChilledWater,
            die_limit: Celsius::new(85.0),
            seed: 42,
        }
    }

    /// Number of racks on the floor.
    #[must_use]
    pub fn racks(&self) -> usize {
        self.rows * self.racks_per_row
    }

    /// Total server count.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.racks() * self.servers_per_rack
    }

    /// Per-rack tile flows: each rack's placement-weighted share of
    /// the room's total airflow (see the type docs for the weighting).
    #[must_use]
    pub fn tile_flows(&self) -> Vec<AirFlow> {
        let total = self.airflow_per_server.value() * self.servers() as f64;
        let mut weights = Vec::with_capacity(self.racks());
        for row in 0..self.rows {
            for col in 0..self.racks_per_row {
                let d = (0..self.crah_units.max(1))
                    .map(|c| {
                        let crah_col = (c as f64 + 0.5) * self.racks_per_row as f64
                            / self.crah_units.max(1) as f64
                            - 0.5;
                        let dx = col as f64 - crah_col;
                        let dy = row as f64 + 1.0;
                        (dx * dx + dy * dy).sqrt()
                    })
                    .fold(f64::INFINITY, f64::min);
                weights.push(1.0 / (1.0 + d / self.tile_decay));
            }
        }
        let sum: f64 = weights.iter().sum();
        weights
            .into_iter()
            .map(|w| AirFlow::new(total * w / sum))
            .collect()
    }

    fn validate(&self) -> Result<(), CoreError> {
        let invalid = |what: &str| CoreError::Invalid {
            what: what.to_owned(),
        };
        if self.rows == 0 || self.racks_per_row == 0 {
            return Err(invalid("room needs at least one rack"));
        }
        if self.servers_per_rack == 0 {
            return Err(invalid("racks need at least one server"));
        }
        if self.crah_units == 0 {
            return Err(invalid("room needs at least one CRAH unit"));
        }
        if !(self.recirculation_fraction >= 0.0 && self.recirculation_fraction < 1.0) {
            return Err(invalid("recirculation fraction must be in [0, 1)"));
        }
        if !(self.airflow_per_server.value() > 0.0 && self.airflow_per_server.value().is_finite()) {
            return Err(invalid("per-server airflow must be positive"));
        }
        if !(self.tile_decay > 0.0 && self.tile_decay.is_finite()) {
            return Err(invalid("tile decay length must be positive"));
        }
        if !self.die_limit.degrees().is_finite() {
            return Err(invalid("die limit must be finite"));
        }
        self.cop_model.validate()?;
        Ok(())
    }
}

/// A pluggable CRAH coefficient-of-performance curve — how efficiently
/// the cooling plant removes heat at a given supply set-point.
///
/// The default is the HP Utility Data Center chilled-water model (see
/// [`crah_cop`]); the other variants let outdoor-temperature-dependent
/// or economizer/free-cooling curves slot into [`RoomConfig`] (and
/// into an MPC's cost model) without touching the room's accounting
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub enum CopModel {
    /// `COP(T) = 0.0068·T² + 0.0008·T + 0.458`, the HP Utility Data
    /// Center chilled-water curve ([`crah_cop`]).
    #[default]
    HpChilledWater,
    /// A set-point-independent COP (e.g. a free-cooling regime pinned
    /// by outdoor conditions).
    Constant(f64),
    /// An explicit quadratic `a·T² + b·T + c` in the supply
    /// temperature (°C) — the shape chiller data sheets fit; floored
    /// at 0.1 like the built-in curve.
    Quadratic {
        /// Quadratic coefficient.
        a: f64,
        /// Linear coefficient.
        b: f64,
        /// Constant term.
        c: f64,
    },
}

impl CopModel {
    /// The coefficient of performance at a supply temperature (always
    /// ≥ 0.1, so cooling energy stays finite and positive).
    #[must_use]
    pub fn cop(&self, supply: Celsius) -> f64 {
        let t = supply.degrees();
        let raw = match *self {
            Self::HpChilledWater => return crah_cop(supply),
            Self::Constant(cop) => cop,
            Self::Quadratic { a, b, c } => a * t * t + b * t + c,
        };
        raw.max(0.1)
    }

    fn validate(&self) -> Result<(), CoreError> {
        let ok = match *self {
            Self::HpChilledWater => true,
            Self::Constant(cop) => cop.is_finite() && cop > 0.0,
            Self::Quadratic { a, b, c } => a.is_finite() && b.is_finite() && c.is_finite(),
        };
        if ok {
            Ok(())
        } else {
            Err(CoreError::Invalid {
                what: "COP model parameters must be finite and positive".to_owned(),
            })
        }
    }
}

/// Chilled-water CRAH coefficient of performance at a supply
/// temperature: `COP(T) = 0.0068·T² + 0.0008·T + 0.458` (HP Utility
/// Data Center model). Higher set-points cool more efficiently — the
/// counterweight to leakage in the room-scale energy balance.
#[must_use]
pub fn crah_cop(supply: Celsius) -> f64 {
    let t = supply.degrees();
    (0.0068 * t * t + 0.0008 * t + 0.458).max(0.1)
}

/// A machine room: every rack's servers in one lane store, each rack on
/// its own cold-aisle inlet from a [`RoomAirModel`].
///
/// # Example
///
/// ```
/// use leakctl::room::{Room, RoomConfig};
/// use leakctl_units::{SimDuration, Utilization};
///
/// # fn main() -> Result<(), leakctl::CoreError> {
/// let mut room = Room::new(RoomConfig::new(1, 2, 4))?;
/// for _ in 0..60 {
///     room.step(SimDuration::from_secs(1), Utilization::FULL)?;
/// }
/// // Hot aisles run above the 18 °C supply once the racks heat up.
/// assert!(room.hot_aisle_temperature(0).degrees() > 18.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Room {
    /// Every server, racks of `servers_per_rack` in rack order.
    store: LaneStore,
    racks: usize,
    air: RoomAirModel,
    crah_energy: Joules,
    accounted: SimDuration,
    servers_per_rack: usize,
    cop_model: CopModel,
    die_limit: Celsius,
    /// Mean activity that ran over the most recent step (surfaced to
    /// controllers through [`RoomObservation::activity`]).
    last_activity: Utilization,
    /// Resident per-rack commanded activity — the workload placement.
    /// Every stepping entry point records its command here;
    /// [`Room::step_placed`] re-runs it unchanged, so a scheduler's
    /// [`PlacementAction`] keeps driving the floor between decisions.
    placement: Vec<Utilization>,
    /// Resident per-rack power budgets (`None`: unbudgeted). A
    /// budgeted rack whose measured power exceeds its budget has its
    /// commanded activity throttled proportionally for the next step.
    budgets: Vec<Option<Watts>>,
    /// Per-rack activity that actually ran over the most recent step
    /// (budget throttling included) — the observation read path.
    last_rack_activity: Vec<Utilization>,
    /// Per-step scratch: rack activities / inlets (no per-step allocs).
    activities: Vec<Utilization>,
    inlets: Vec<Celsius>,
}

impl Room {
    /// Builds the room with the environment's thread plan
    /// (`LEAKCTL_THREADS`, else the machine) for sharding its lanes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for an inconsistent config and
    /// propagates construction failures.
    pub fn new(config: RoomConfig) -> Result<Self, CoreError> {
        Self::with_plan(config, ShardPlan::from_env())
    }

    /// As [`Room::new`] with an explicit thread plan over the room's
    /// lanes — a pure performance knob: the room trajectory is
    /// bit-identical for any plan (racks only interact through the
    /// serial air phase).
    ///
    /// # Errors
    ///
    /// As [`Room::new`].
    pub fn with_plan(config: RoomConfig, plan: ShardPlan) -> Result<Self, CoreError> {
        config.validate()?;
        let racks = config.racks();
        let spr = config.servers_per_rack;
        // Server `i` of rack `r` is seeded `seed + r·spr + i`. The plan
        // may shard down to single lanes.
        let servers = (0..racks * spr)
            .map(|i| Server::new(config.server.clone(), config.seed.wrapping_add(i as u64)))
            .collect::<Result<Vec<Server>, _>>()?;
        let store = LaneStore::new(servers, spr, &plan.with_min_lanes_per_shard(1))?;
        let spec = RoomAirSpec::with_tile_flows(
            config.crah_supply,
            config.tile_flows(),
            config.recirculation_fraction,
        );
        let air = RoomAirModel::new(spec).map_err(leakctl_platform::PlatformError::from)?;
        Ok(Self {
            store,
            racks,
            air,
            crah_energy: Joules::ZERO,
            accounted: SimDuration::ZERO,
            servers_per_rack: spr,
            cop_model: config.cop_model,
            die_limit: config.die_limit,
            last_activity: Utilization::IDLE,
            placement: vec![Utilization::IDLE; racks],
            budgets: vec![None; racks],
            last_rack_activity: vec![Utilization::IDLE; racks],
            activities: Vec::with_capacity(racks),
            inlets: Vec::with_capacity(racks),
        })
    }

    /// Number of racks.
    #[must_use]
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// Total server count.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.store.len()
    }

    /// Server `index` of rack `rack`, for its per-server telemetry and
    /// ground truth, written back from its lane first (see
    /// [`Fleet::server`](crate::fleet::Fleet::server)); `None` when out
    /// of range.
    #[must_use]
    pub fn server(&mut self, rack: usize, index: usize) -> Option<&Server> {
        if rack >= self.racks || index >= self.servers_per_rack {
            return None;
        }
        self.store.server(rack * self.servers_per_rack + index)
    }

    /// The room air network (read side).
    #[must_use]
    pub fn air(&self) -> &RoomAirModel {
        &self.air
    }

    /// Derates the room's CRAH capacity: `1.0` is a healthy plant,
    /// `0.0` a full outage (return air recirculates to the plenum
    /// uncooled; see [`RoomAirModel::set_crah_capacity`]). This is the
    /// room-scale fault-injection knob — the scenario harness drives it
    /// to script CRAH failures and recoveries.
    ///
    /// # Errors
    ///
    /// Returns [`RoomError::InvalidFault`] for a capacity outside
    /// `[0, 1]`.
    pub fn set_crah_capacity(&mut self, capacity: f64) -> Result<(), RoomError> {
        if !(capacity.is_finite() && (0.0..=1.0).contains(&capacity)) {
            return Err(RoomError::InvalidFault {
                what: "CRAH capacity must be in [0, 1]",
            });
        }
        self.air.set_crah_capacity(capacity).map_err(RoomError::Air)
    }

    /// The current CRAH capacity factor (`1.0` healthy).
    #[must_use]
    pub fn crah_capacity(&self) -> f64 {
        self.air.crah_capacity()
    }

    /// Blocks a fraction of rack `rack`'s perforated tile (`0.0` clear,
    /// `1.0` fully obstructed). The commanded tile flow is remembered,
    /// so clearing the blockage restores the exact pre-fault flow (see
    /// [`RoomAirModel::set_tile_blockage`]).
    ///
    /// # Errors
    ///
    /// Returns [`RoomError::RackOutOfRange`] or
    /// [`RoomError::InvalidFault`] for a blockage outside `[0, 1]`.
    pub fn set_tile_blockage(&mut self, rack: usize, blockage: f64) -> Result<(), RoomError> {
        if rack >= self.racks {
            return Err(RoomError::RackOutOfRange {
                rack,
                racks: self.racks,
            });
        }
        if !(blockage.is_finite() && (0.0..=1.0).contains(&blockage)) {
            return Err(RoomError::InvalidFault {
                what: "tile blockage must be in [0, 1]",
            });
        }
        self.air
            .set_tile_blockage(rack, blockage)
            .map_err(RoomError::Air)
    }

    /// Rack `rack`'s current tile-blockage fraction.
    ///
    /// # Errors
    ///
    /// Returns [`RoomError::RackOutOfRange`].
    pub fn tile_blockage(&self, rack: usize) -> Result<f64, RoomError> {
        self.air
            .tile_blockage(rack)
            .map_err(|_| RoomError::RackOutOfRange {
                rack,
                racks: self.racks,
            })
    }

    /// Injects (or clears, with [`FanFault::None`]) a fan-bank fault on
    /// server `server` of rack `rack` (see
    /// [`Fleet::inject_fan_fault`](crate::fleet::Fleet::inject_fan_fault)).
    ///
    /// # Errors
    ///
    /// Returns [`RoomError::RackOutOfRange`] /
    /// [`RoomError::ServerOutOfRange`] for bad indices and
    /// [`RoomError::InvalidFault`] for a degraded flow scale outside
    /// `[0, 1]`.
    pub fn inject_fan_fault(
        &mut self,
        rack: usize,
        server: usize,
        fault: FanFault,
    ) -> Result<(), RoomError> {
        if rack >= self.racks {
            return Err(RoomError::RackOutOfRange {
                rack,
                racks: self.racks,
            });
        }
        if server >= self.servers_per_rack {
            return Err(RoomError::ServerOutOfRange {
                server,
                servers: self.servers_per_rack,
            });
        }
        if let FanFault::Degraded { flow_scale } = fault {
            if !(flow_scale.is_finite() && (0.0..=1.0).contains(&flow_scale)) {
                return Err(RoomError::InvalidFault {
                    what: "degraded fan flow scale must be in [0, 1]",
                });
            }
        }
        self.store
            .inject_fan_fault(rack * self.servers_per_rack + server, fault);
        Ok(())
    }

    /// The fan fault currently injected on server `server` of rack
    /// `rack`.
    ///
    /// # Errors
    ///
    /// Returns [`RoomError::RackOutOfRange`] /
    /// [`RoomError::ServerOutOfRange`] for bad indices.
    pub fn fan_fault(&self, rack: usize, server: usize) -> Result<FanFault, RoomError> {
        if rack >= self.racks {
            return Err(RoomError::RackOutOfRange {
                rack,
                racks: self.racks,
            });
        }
        if server >= self.servers_per_rack {
            return Err(RoomError::ServerOutOfRange {
                server,
                servers: self.servers_per_rack,
            });
        }
        self.store
            .fan_fault(rack * self.servers_per_rack + server)
            .ok_or(RoomError::RackOutOfRange {
                rack,
                racks: self.racks,
            })
    }

    /// Snapshots the full room — every server (thermal state, fan
    /// banks with injected faults, service processors, sensor RNG
    /// streams), the air-side network with its boundary conditions and
    /// fault state, and the energy/time accounting. The lanes are
    /// written back first, so the snapshot is exact for any thread
    /// plan.
    pub fn checkpoint(&mut self) -> RoomCheckpoint {
        RoomCheckpoint {
            store: self.store.checkpoint(),
            air: self.air.clone(),
            crah_energy: self.crah_energy,
            accounted: self.accounted,
            last_activity: self.last_activity,
            placement: self.placement.clone(),
            budgets: self.budgets.clone(),
            last_rack_activity: self.last_rack_activity.clone(),
        }
    }

    /// Restores a [`Room::checkpoint`] — into this room or any room
    /// built from the same config under any thread plan. The resumed
    /// trajectory is bit-identical to the uninterrupted one. The whole
    /// checkpoint is validated before anything is touched, so a
    /// rejected restore never leaves the room half-restored.
    ///
    /// # Errors
    ///
    /// Returns [`RoomError::CheckpointMismatch`] when rack/server
    /// counts or thermal topologies differ.
    pub fn restore(&mut self, checkpoint: &RoomCheckpoint) -> Result<(), RoomError> {
        self.can_restore(checkpoint)?;
        self.store
            .restore(&checkpoint.store)
            .map_err(|e| RoomError::CheckpointMismatch {
                what: e.to_string(),
            })?;
        self.air = checkpoint.air.clone();
        self.crah_energy = checkpoint.crah_energy;
        self.accounted = checkpoint.accounted;
        self.last_activity = checkpoint.last_activity;
        self.placement.clone_from(&checkpoint.placement);
        self.budgets.clone_from(&checkpoint.budgets);
        self.last_rack_activity
            .clone_from(&checkpoint.last_rack_activity);
        Ok(())
    }

    /// Checks that `checkpoint` could be restored into this room without
    /// committing anything — the validation half of [`Room::restore`],
    /// exposed so a building can vet every room's checkpoint before
    /// touching any of them (all-or-nothing building restores).
    ///
    /// # Errors
    ///
    /// Returns [`RoomError::CheckpointMismatch`] when rack/server
    /// counts or thermal topologies differ.
    pub fn can_restore(&self, checkpoint: &RoomCheckpoint) -> Result<(), RoomError> {
        if checkpoint.racks() != self.racks {
            return Err(RoomError::CheckpointMismatch {
                what: format!(
                    "checkpoint holds {} racks, room has {}",
                    checkpoint.racks(),
                    self.racks
                ),
            });
        }
        if checkpoint.air.racks() != self.air.racks() {
            return Err(RoomError::CheckpointMismatch {
                what: "air-side rack count differs".to_owned(),
            });
        }
        if checkpoint.placement.len() != self.racks
            || checkpoint.budgets.len() != self.racks
            || checkpoint.last_rack_activity.len() != self.racks
        {
            return Err(RoomError::CheckpointMismatch {
                what: "placement rack count differs".to_owned(),
            });
        }
        self.store
            .can_restore(&checkpoint.store)
            .map_err(|e| RoomError::CheckpointMismatch {
                what: e.to_string(),
            })
    }

    /// Validates and atomically applies a typed room command — the one
    /// write path controllers (and the future `leakctld` set-point
    /// endpoint) drive. The whole action is validated before anything
    /// is touched, so a rejected action never leaves the room
    /// half-applied.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for a non-finite supply, a
    /// tile-flow list whose length does not match the rack count, or a
    /// non-positive/non-finite tile flow.
    pub fn apply(&mut self, action: &ControlAction) -> Result<(), CoreError> {
        let invalid = |what: &str| CoreError::Invalid {
            what: what.to_owned(),
        };
        // ---- validate everything up front (atomicity).
        if let Some(supply) = action.supply {
            if !supply.degrees().is_finite() {
                return Err(invalid("supply set-point must be finite"));
            }
        }
        if let Some(flows) = &action.tile_flows {
            if flows.len() != self.racks {
                return Err(invalid("one tile flow per rack required"));
            }
            if flows
                .iter()
                .any(|q| !(q.value() > 0.0 && q.value().is_finite()))
            {
                return Err(invalid("tile flows must be positive and finite"));
            }
        }
        if let Some(rpm) = action.fan_floor {
            if !(rpm.value().is_finite() && rpm.value() >= 0.0) {
                return Err(invalid("fan floor must be finite and non-negative"));
            }
        }
        // ---- commit (every call below is now infallible by
        // construction).
        if let Some(supply) = action.supply {
            self.air
                .set_supply(supply)
                .map_err(leakctl_platform::PlatformError::from)?;
        }
        if let Some(flows) = &action.tile_flows {
            for (rack, &flow) in flows.iter().enumerate() {
                self.air
                    .set_tile_flow(rack, flow)
                    .map_err(leakctl_platform::PlatformError::from)?;
            }
        }
        if let Some(rpm) = action.fan_floor {
            self.store.command_all(rpm);
        }
        Ok(())
    }

    /// Fills `obs` with a read-only room snapshot — allocation-free
    /// once the snapshot's vectors have reached capacity, and `&self`
    /// throughout (die temperatures come straight from the packed
    /// shard blocks), so telemetry pollers never contend for
    /// `&mut Room`.
    pub fn observe_into(&self, obs: &mut RoomObservation) {
        let supply = self.air.supply_temperature();
        let cop = self.cop_model.cop(supply);
        obs.time = self.accounted;
        obs.supply = supply;
        obs.return_temp = self.air.return_temperature();
        obs.recirculation = self.air.recirculation();
        obs.activity = self.last_activity;
        obs.it_power = self.total_power();
        obs.cooling_power = Watts::new(self.air.crah_heat_removed().value().max(0.0) / cop);
        obs.cop = cop;
        obs.servers_per_rack = self.servers_per_rack;
        let racks = self.racks;
        obs.cold_aisles.clear();
        obs.cold_aisles
            .extend((0..racks).map(|r| self.air.cold_aisle_temperature(r)));
        obs.hot_aisles.clear();
        obs.hot_aisles
            .extend((0..racks).map(|r| self.air.hot_aisle_temperature(r)));
        self.rack_max_die_temperatures(&mut obs.rack_die_max);
        obs.tile_flows.clear();
        // `r < racks` makes the lookup infallible; degrade to zero flow
        // rather than aborting a telemetry poll if that ever changes.
        obs.tile_flows
            .extend((0..racks).map(|r| self.air.tile_flow(r).unwrap_or(AirFlow::ZERO)));
        obs.rack_it_power.clear();
        obs.rack_it_power
            .extend((0..racks).map(|r| self.store.rack_power(r)));
        obs.rack_activity.clear();
        obs.rack_activity
            .extend_from_slice(&self.last_rack_activity);
        obs.die_limit = self.die_limit;
    }

    /// A freshly allocated room snapshot (see [`Room::observe_into`]
    /// for the reusable form).
    #[must_use]
    pub fn observe(&self) -> RoomObservation {
        let mut obs = RoomObservation::new();
        self.observe_into(&mut obs);
        obs
    }

    /// Runs the closed control loop for `steps` steps of `dt`: every
    /// [`RoomController::decision_period`] (and at the first step) the
    /// controller observes a fresh snapshot — with the live air model
    /// as its what-if oracle — and its action is applied atomically
    /// before the room advances. `schedule` maps the step index of this
    /// call to the room-wide activity level.
    ///
    /// Every call starts a fresh run: the controller decides at its
    /// first step and the returned stats cover this call only, so
    /// chunked calls re-decide at each chunk boundary. A
    /// [`ScenarioRunner`](crate::scenario::ScenarioRunner) carries its
    /// cadence across chunks instead.
    ///
    /// The trajectory is bit-identical for any thread plan: decisions
    /// happen in the serial section between steps, and previews never
    /// touch the live state.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for a zero `dt` and propagates
    /// apply/step failures.
    pub fn run_controlled(
        &mut self,
        mut controller: &mut dyn RoomController,
        dt: SimDuration,
        steps: u64,
        schedule: impl FnMut(u64) -> Utilization,
    ) -> Result<ControlStats, CoreError> {
        let mut drive = Drive::new(1, Celsius::new(f64::INFINITY));
        drive.run(
            self,
            std::slice::from_mut(&mut controller),
            &mut Uniform(schedule),
            &mut RoomObservation::new(),
            dt,
            steps,
        )?;
        Ok(drive.stats())
    }

    /// Observes the room into `obs` and consults `controller` with the
    /// live air model as its what-if oracle, returning the (unapplied)
    /// action — the control stage of every closed-loop run
    /// ([`Room::run_controlled`], the scenario runners and the
    /// scheduled loop).
    pub fn decide(
        &mut self,
        controller: &mut dyn RoomController,
        obs: &mut RoomObservation,
    ) -> ControlAction {
        self.observe_into(obs);
        controller.observe(obs, &mut self.air)
    }

    /// Validates and atomically applies a typed workload placement —
    /// the write path schedulers drive, the placement-side twin of
    /// [`Room::apply`]. The whole action is validated before anything
    /// is touched, so a rejected placement never leaves the room
    /// half-placed: per-rack utilizations must be finite fractions in
    /// `[0, 1]` with exactly one entry per rack, and any power budgets
    /// must be finite, positive and one per rack.
    ///
    /// The committed placement is *resident*: it keeps driving the
    /// racks on every [`Room::step_placed`] until the next placement
    /// (or a uniform [`Room::step`]) replaces it, and it rides
    /// [`Room::checkpoint`] so a restored room resumes bit-identically.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Placement`] describing the first violation;
    /// nothing is committed on any error.
    pub fn apply_placement(&mut self, action: &PlacementAction) -> Result<(), CoreError> {
        let racks = self.racks;
        // ---- validate everything up front (atomicity).
        if action.utilizations.len() != racks {
            return Err(PlacementError::RackCountMismatch {
                got: action.utilizations.len(),
                racks,
            }
            .into());
        }
        for (rack, &fraction) in action.utilizations.iter().enumerate() {
            if !(fraction.is_finite() && (0.0..=1.0).contains(&fraction)) {
                return Err(PlacementError::InvalidUtilization { rack, fraction }.into());
            }
        }
        if let Some(budgets) = &action.power_budgets {
            if budgets.len() != racks {
                return Err(PlacementError::BudgetCountMismatch {
                    got: budgets.len(),
                    racks,
                }
                .into());
            }
            for (rack, budget) in budgets.iter().enumerate() {
                if let Some(watts) = budget {
                    if !(watts.value().is_finite() && watts.value() > 0.0) {
                        return Err(PlacementError::InvalidBudget {
                            rack,
                            watts: watts.value(),
                        }
                        .into());
                    }
                }
            }
        }
        // ---- commit (infallible by construction).
        for (slot, &fraction) in self.placement.iter_mut().zip(&action.utilizations) {
            *slot = Utilization::saturating_from_fraction(fraction);
        }
        if let Some(budgets) = &action.power_budgets {
            self.budgets.clone_from(budgets);
        }
        Ok(())
    }

    /// The resident per-rack placement the next [`Room::step_placed`]
    /// will run (commanded values, before any budget throttling).
    #[must_use]
    pub fn placement(&self) -> &[Utilization] {
        &self.placement
    }

    /// The resident per-rack power budgets (`None`: unbudgeted).
    #[must_use]
    pub fn power_budgets(&self) -> &[Option<Watts>] {
        &self.budgets
    }

    /// The thermal cap per-rack die margins are measured against (see
    /// [`RoomConfig::die_limit`]).
    #[must_use]
    pub fn die_limit(&self) -> Celsius {
        self.die_limit
    }

    /// Advances the whole room by `dt` with every rack at the same
    /// activity level. The uniform command replaces the resident
    /// placement; resident power budgets still throttle.
    ///
    /// # Errors
    ///
    /// Propagates platform and solver failures.
    pub fn step(&mut self, dt: SimDuration, activity: Utilization) -> Result<(), CoreError> {
        self.placement.fill(activity);
        self.step_placed(dt)
    }

    /// Advances the room by `dt` on the resident placement — the
    /// stepping half of the [`Room::apply_placement`] →
    /// [`Room::step_placed`] scheduler loop. Each budgeted rack whose
    /// measured start-of-step power exceeds its budget runs its
    /// commanded activity scaled by `budget / power` (a RAPL-style
    /// proportional throttle); the commanded placement itself is left
    /// untouched, so throttling lifts as the rack cools.
    ///
    /// # Errors
    ///
    /// Propagates platform and solver failures.
    pub fn step_placed(&mut self, dt: SimDuration) -> Result<(), CoreError> {
        let mut activities = std::mem::take(&mut self.activities);
        activities.clear();
        activities.extend(self.placement.iter().zip(&self.budgets).enumerate().map(
            |(rack, (&commanded, budget))| match budget {
                Some(budget) => {
                    let power = self.store.rack_power(rack).value();
                    if power > budget.value() && power > 0.0 {
                        Utilization::saturating_from_fraction(
                            commanded.as_fraction() * budget.value() / power,
                        )
                    } else {
                        commanded
                    }
                }
                None => commanded,
            },
        ));
        let result = self.advance(dt, &activities);
        self.activities = activities;
        result
    }

    /// One operator-split step: serial air phase, then every server on
    /// its rack's cold aisle through the lane store.
    fn advance(&mut self, dt: SimDuration, activities: &[Utilization]) -> Result<(), CoreError> {
        if dt.is_zero() {
            return Ok(());
        }
        // ---- air phase (serial): inject start-of-step rack powers,
        // advance the room network.
        for r in 0..self.racks {
            self.air
                .set_rack_power(r, self.store.rack_power(r))
                .map_err(leakctl_platform::PlatformError::from)?;
        }
        self.air
            .step(dt)
            .map_err(leakctl_platform::PlatformError::from)?;

        // ---- rack phase (parallel): cold-aisle temperature → each
        // rack's inlet, one store step over every server. Lanes are
        // independent within the step, so any partition is
        // bit-identical.
        self.inlets.clear();
        self.inlets
            .extend((0..self.racks).map(|r| self.air.cold_aisle_temperature(r)));
        self.store.step(dt, activities, &self.inlets)?;

        // ---- CRAH cooling work over the step, through the COP at the
        // current set-point.
        let removed = self.air.crah_heat_removed().value().max(0.0);
        let cop = self.cop_model.cop(self.air.supply_temperature());
        self.crah_energy += Watts::new(removed / cop) * dt;
        self.accounted += dt;
        let mean = activities.iter().map(|a| a.as_fraction()).sum::<f64>()
            / activities.len().max(1) as f64;
        self.last_activity = Utilization::saturating_from_fraction(mean);
        self.last_rack_activity.clear();
        self.last_rack_activity.extend_from_slice(activities);
        Ok(())
    }

    /// Rack `rack`'s cold-aisle (inlet) temperature.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range rack.
    #[must_use]
    pub fn cold_aisle_temperature(&self, rack: usize) -> Celsius {
        self.air.cold_aisle_temperature(rack)
    }

    /// Rack `rack`'s hot-aisle temperature.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range rack.
    #[must_use]
    pub fn hot_aisle_temperature(&self, rack: usize) -> Celsius {
        self.air.hot_aisle_temperature(rack)
    }

    /// The mixed return temperature at the CRAH intake.
    #[must_use]
    pub fn return_temperature(&self) -> Celsius {
        self.air.return_temperature()
    }

    /// Total IT power: each rack's sum in server order, summed in rack
    /// order.
    #[must_use]
    pub fn total_power(&self) -> Watts {
        (0..self.racks).map(|r| self.store.rack_power(r)).sum()
    }

    /// Accumulated IT (server + fan) energy since construction, summed
    /// as [`Room::total_power`] is.
    #[must_use]
    pub fn it_energy(&self) -> Joules {
        (0..self.racks).map(|r| self.store.rack_energy(r)).sum()
    }

    /// Accumulated CRAH cooling energy (heat removed over COP).
    #[must_use]
    pub fn cooling_energy(&self) -> Joules {
        self.crah_energy
    }

    /// Total room energy: IT plus CRAH cooling work.
    #[must_use]
    pub fn total_energy(&self) -> Joules {
        self.it_energy() + self.crah_energy
    }

    /// Time the room has been stepped since construction or the last
    /// [`Room::reset_accounting`].
    #[must_use]
    pub fn accounted_time(&self) -> SimDuration {
        self.accounted
    }

    /// Resets all energy accounting — per-server accumulators, the
    /// CRAH cooling energy and the accounted clock (e.g. after a
    /// warm-up phase). Thermal state is untouched.
    pub fn reset_accounting(&mut self) {
        self.store.reset_accounting();
        self.crah_energy = Joules::ZERO;
        self.accounted = SimDuration::ZERO;
    }

    /// The hottest die anywhere in the room (packed-block read path;
    /// no unpacks).
    #[must_use]
    pub fn max_die_temperature(&self) -> Celsius {
        self.store.max_die_temperature()
    }

    /// Every rack's hottest die temperature, appended into `out`
    /// (cleared first) — the controller-loop read path: it reads
    /// straight from the packed lane blocks, with no state unpacks.
    pub fn rack_max_die_temperatures(&self, out: &mut Vec<Celsius>) {
        out.clear();
        out.extend((0..self.racks).map(|r| self.store.rack_max_die_temperature(r)));
    }

    /// The rack whose hottest die is highest right now — the hot spot
    /// a tile-flow or set-point controller would act on. Total order,
    /// so a non-finite die temperature (a diverged solve under an
    /// injected fault) picks a rack instead of panicking.
    #[must_use]
    pub fn hottest_rack(&self) -> usize {
        let die = |rack| self.store.rack_max_die_temperature(rack).degrees();
        (0..self.racks)
            .max_by(|&a, &b| die(a).total_cmp(&die(b)))
            .unwrap_or(0)
    }
}

/// A full-state snapshot of a [`Room`] (see [`Room::checkpoint`]):
/// one lane-store snapshot of every server in rack order, the air-side
/// network (boundary conditions and fault state included) and the
/// energy/time accounting. Restoring resumes the trajectory
/// bit-identically for any thread plan.
#[derive(Debug, Clone)]
pub struct RoomCheckpoint {
    store: FleetCheckpoint,
    air: RoomAirModel,
    crah_energy: Joules,
    accounted: SimDuration,
    last_activity: Utilization,
    placement: Vec<Utilization>,
    budgets: Vec<Option<Watts>>,
    last_rack_activity: Vec<Utilization>,
}

impl RoomCheckpoint {
    /// Number of racks captured.
    #[must_use]
    pub fn racks(&self) -> usize {
        self.placement.len()
    }

    /// Simulated time accounted at the capture point.
    #[must_use]
    pub fn accounted_time(&self) -> SimDuration {
        self.accounted
    }
}

/// Counters from a [`Room::run_controlled`] run: how often the
/// controller was consulted, how often it commanded a change (a
/// well-settled loop holds most of the time), and — for scenario runs
/// — how the loop rode out injected faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlStats {
    /// Controller consultations (one per decision period plus `t = 0`).
    pub decisions: u64,
    /// Decisions that produced a non-hold action.
    pub applied: u64,
    /// Hottest die seen after any step of the run.
    pub peak_die: Celsius,
    /// Simulated time the room's hottest die spent above the thermal
    /// cap. [`Room::run_controlled`] has no cap and leaves this zero;
    /// scenario runners fill it in.
    pub cap_violation_time: SimDuration,
    /// Time from the onset of the last cap excursion to the step after
    /// which the hottest die stays under the cap (`None`: no excursion,
    /// or the run ended above the cap). Scenario runners fill it in.
    pub recovery_time: Option<SimDuration>,
    /// Extra total energy relative to a fault-free reference run of
    /// the same scenario (`None` outside scenario runs).
    pub energy_overhead: Option<Joules>,
}

impl Default for ControlStats {
    fn default() -> Self {
        Self {
            decisions: 0,
            applied: 0,
            peak_die: Celsius::new(f64::NEG_INFINITY),
            cap_violation_time: SimDuration::ZERO,
            recovery_time: None,
            energy_overhead: None,
        }
    }
}

/// The stages of [`Room::run_controlled`]: a uniform activity level
/// per step index.
struct Uniform<F>(F);

impl<F: FnMut(u64) -> Utilization> Stages<Room> for Uniform<F> {
    fn step(&mut self, room: &mut Room, dt: SimDuration, step: u64) -> Result<(), CoreError> {
        room.step(dt, (self.0)(step))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakctl_units::Rpm;

    fn small() -> RoomConfig {
        let mut config = RoomConfig::new(1, 2, 3);
        config.crah_supply = Celsius::new(20.0);
        config.recirculation_fraction = 0.2;
        config
    }

    #[test]
    fn construction_validated() {
        assert!(Room::new(RoomConfig::new(0, 2, 2)).is_err());
        assert!(Room::new(RoomConfig::new(1, 0, 2)).is_err());
        assert!(Room::new(RoomConfig::new(1, 2, 0)).is_err());
        let mut bad = RoomConfig::new(1, 2, 2);
        bad.recirculation_fraction = 1.0;
        assert!(Room::new(bad).is_err());
        let mut bad = RoomConfig::new(1, 2, 2);
        bad.crah_units = 0;
        assert!(Room::new(bad).is_err());
        let mut bad = RoomConfig::new(1, 2, 2);
        bad.airflow_per_server = AirFlow::ZERO;
        assert!(Room::new(bad).is_err());

        let room = Room::new(small()).unwrap();
        assert_eq!(room.racks(), 2);
        assert_eq!(room.servers(), 6);
        assert_eq!(room.air().racks(), 2);
    }

    #[test]
    fn tile_flows_decay_with_crah_distance() {
        let mut config = RoomConfig::new(3, 4, 8);
        config.crah_units = 1;
        let flows = config.tile_flows();
        assert_eq!(flows.len(), 12);
        let total: f64 = flows.iter().map(|q| q.value()).sum();
        let want = config.airflow_per_server.value() * config.servers() as f64;
        assert!((total - want).abs() < 1e-9 * want, "split preserves total");
        // Row 0 (next to the CRAH wall) out-draws row 2.
        assert!(flows[0].value() > flows[8].value());
        // Within a row, the tile under the CRAH out-draws the corner.
        assert!(flows[1].value() > flows[3].value());
    }

    fn pin_fans(room: &mut Room, rpm: f64) {
        room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(rpm)))
            .unwrap();
    }

    #[test]
    fn room_warms_and_conserves_energy_at_steady_state() {
        let mut room = Room::new(small()).unwrap();
        pin_fans(&mut room, 3000.0);
        let dt = SimDuration::from_secs(1);
        for _ in 0..3_600 {
            room.step(dt, Utilization::FULL).unwrap();
        }
        // Hot aisle above cold aisle above supply.
        for r in 0..room.racks() {
            assert!(room.hot_aisle_temperature(r) > room.cold_aisle_temperature(r));
            assert!(room.cold_aisle_temperature(r).degrees() > 20.0);
        }
        // At (quasi-)steady state the CRAH extracts the IT dissipation.
        let removed = room.air().crah_heat_removed().value();
        let it = room.total_power().value();
        assert!(
            ((removed - it) / it).abs() < 1e-6,
            "CRAH {removed} W vs IT {it} W"
        );
        // Energy accounting: IT + cooling, cooling > 0, time tracked.
        assert!(room.cooling_energy() > Joules::ZERO);
        assert_eq!(
            room.total_energy(),
            room.it_energy() + room.cooling_energy()
        );
        assert_eq!(room.accounted_time(), SimDuration::from_secs(3_600));
        // Accounting resets cleanly (physics untouched).
        let die = room.max_die_temperature();
        room.reset_accounting();
        assert_eq!(room.total_energy(), Joules::ZERO);
        assert_eq!(room.accounted_time(), SimDuration::ZERO);
        assert_eq!(room.max_die_temperature(), die);
    }

    #[test]
    fn warmer_supply_trades_cooling_for_leakage() {
        let run = |supply: f64| {
            let mut config = small();
            config.crah_supply = Celsius::new(supply);
            let mut room = Room::with_plan(config, ShardPlan::new(1)).unwrap();
            pin_fans(&mut room, 3000.0);
            for _ in 0..2_400 {
                room.step(SimDuration::from_secs(1), Utilization::FULL)
                    .unwrap();
            }
            room
        };
        let cold = run(16.0);
        let warm = run(27.0);
        // Warmer supply → hotter dies → more leakage → more IT energy…
        assert!(warm.max_die_temperature() > cold.max_die_temperature());
        assert!(warm.it_energy() > cold.it_energy());
        // …but the CRAH works at a much better COP.
        assert!(crah_cop(Celsius::new(27.0)) > crah_cop(Celsius::new(16.0)));
        assert!(warm.cooling_energy() < cold.cooling_energy());
    }

    #[test]
    fn per_rack_activities_shape_the_room() {
        let mut room = Room::with_plan(small(), ShardPlan::new(2)).unwrap();
        assert!(matches!(
            room.apply_placement(&PlacementAction::from_utilizations(&[Utilization::FULL])),
            Err(CoreError::Placement(PlacementError::RackCountMismatch {
                got: 1,
                racks: 2
            }))
        ));
        room.apply_placement(&PlacementAction::from_utilizations(&[
            Utilization::FULL,
            Utilization::IDLE,
        ]))
        .unwrap();
        for _ in 0..1_800 {
            room.step_placed(SimDuration::from_secs(1)).unwrap();
        }
        assert!(room.hot_aisle_temperature(0) > room.hot_aisle_temperature(1));
        assert_eq!(room.hottest_rack(), 0);
        let mut temps = Vec::new();
        room.rack_max_die_temperatures(&mut temps);
        assert_eq!(temps.len(), 2);
        assert!(temps[0] > temps[1]);
    }

    #[test]
    fn trajectory_bit_identical_across_rack_shard_plans() {
        let run = |threads: usize| {
            let mut config = RoomConfig::new(2, 2, 2);
            config.recirculation_fraction = 0.25;
            let mut room = Room::with_plan(config, ShardPlan::new(threads)).unwrap();
            pin_fans(&mut room, 2700.0);
            let dt = SimDuration::from_secs(1);
            for step in 0..200 {
                let act = if step % 60 < 30 {
                    Utilization::FULL
                } else {
                    Utilization::IDLE
                };
                room.step(dt, act).unwrap();
            }
            let aisles: Vec<u64> = (0..room.racks())
                .map(|r| room.cold_aisle_temperature(r).degrees().to_bits())
                .collect();
            (
                room.total_energy(),
                room.max_die_temperature(),
                room.cooling_energy(),
                aisles,
            )
        };
        let reference = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), reference, "threads {threads}");
        }
    }

    #[test]
    fn apply_validates_atomically() {
        let mut room = Room::new(small()).unwrap();
        let before_supply = room.air().supply_temperature();
        let before_flows: Vec<AirFlow> = (0..room.racks())
            .map(|r| room.air().tile_flow(r).unwrap())
            .collect();

        // A bad tile-flow list rejects the whole action: the (valid)
        // supply half must not land either.
        let bad = ControlAction::hold()
            .with_supply(Celsius::new(24.0))
            .with_tile_flows(vec![AirFlow::from_cfm(100.0)]);
        assert!(matches!(room.apply(&bad), Err(CoreError::Invalid { .. })));
        assert_eq!(room.air().supply_temperature(), before_supply);

        let bad = ControlAction::hold()
            .with_supply(Celsius::new(24.0))
            .with_tile_flows(vec![AirFlow::ZERO, AirFlow::from_cfm(100.0)]);
        assert!(matches!(room.apply(&bad), Err(CoreError::Invalid { .. })));
        assert_eq!(room.air().supply_temperature(), before_supply);
        for (r, &flow) in before_flows.iter().enumerate() {
            assert_eq!(room.air().tile_flow(r).unwrap(), flow);
        }

        assert!(matches!(
            room.apply(&ControlAction::hold().with_supply(Celsius::new(f64::NAN))),
            Err(CoreError::Invalid { .. })
        ));
        assert!(matches!(
            room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(f64::NAN))),
            Err(CoreError::Invalid { .. })
        ));

        // A fully valid action lands as a unit.
        let flows: Vec<AirFlow> = before_flows
            .iter()
            .map(|q| AirFlow::new(q.value()))
            .collect();
        let good = ControlAction::hold()
            .with_supply(Celsius::new(23.0))
            .with_tile_flows(flows)
            .with_fan_floor(Rpm::new(3300.0));
        room.apply(&good).unwrap();
        assert_eq!(room.air().supply_temperature(), Celsius::new(23.0));
        // Hold is a no-op.
        room.apply(&ControlAction::hold()).unwrap();
        assert_eq!(room.air().supply_temperature(), Celsius::new(23.0));
    }

    #[test]
    fn observation_snapshot_matches_room_state() {
        let mut room = Room::new(small()).unwrap();
        for _ in 0..600 {
            room.step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        let mut obs = RoomObservation::new();
        room.observe_into(&mut obs);
        assert_eq!(obs.racks(), room.racks());
        assert_eq!(obs.time, room.accounted_time());
        assert_eq!(obs.supply, room.air().supply_temperature());
        assert_eq!(obs.return_temp, room.return_temperature());
        assert_eq!(obs.activity, Utilization::FULL);
        assert_eq!(obs.it_power, room.total_power());
        assert_eq!(obs.servers_per_rack, 3);
        assert!((obs.recirculation - 0.2).abs() < 1e-12);
        assert!(obs.cop > 0.0 && obs.cooling_power.value() > 0.0);
        let mut dies = Vec::new();
        room.rack_max_die_temperatures(&mut dies);
        assert_eq!(obs.rack_die_max, dies);
        assert_eq!(obs.max_die_temperature(), room.max_die_temperature());
        assert_eq!(obs.hottest_rack(), room.hottest_rack());
        for r in 0..room.racks() {
            assert_eq!(obs.cold_aisles[r], room.cold_aisle_temperature(r));
            assert_eq!(obs.hot_aisles[r], room.hot_aisle_temperature(r));
        }
        // Reusable: a second fill into the same buffers is identical.
        let again = room.observe();
        assert_eq!(again.rack_die_max, obs.rack_die_max);
        assert_eq!(again.cold_aisles, obs.cold_aisles);
    }

    #[test]
    fn pluggable_cop_model_drives_the_accounting() {
        let run = |model: CopModel| {
            let mut config = small();
            config.cop_model = model;
            let mut room = Room::with_plan(config, ShardPlan::new(1)).unwrap();
            for _ in 0..900 {
                room.step(SimDuration::from_secs(1), Utilization::FULL)
                    .unwrap();
            }
            room.cooling_energy()
        };
        let default = run(CopModel::HpChilledWater);
        let quad = run(CopModel::Quadratic {
            a: 0.0068,
            b: 0.0008,
            c: 0.458,
        });
        // The explicit quadratic reproduces the built-in curve…
        assert_eq!(default, quad);
        // …and a flat high-COP plant (free cooling) charges far less
        // than the ~3.2 the chilled-water curve gives at a 20 °C
        // supply.
        let flat = run(CopModel::Constant(10.0));
        assert!(flat < default);

        let mut bad = small();
        bad.cop_model = CopModel::Constant(-1.0);
        assert!(Room::new(bad).is_err());
        let mut bad = small();
        bad.cop_model = CopModel::Quadratic {
            a: f64::NAN,
            b: 0.0,
            c: 1.0,
        };
        assert!(Room::new(bad).is_err());
    }

    #[test]
    fn controlled_run_decides_on_schedule() {
        use crate::control::FixedSupplyController;

        let mut room = Room::new(small()).unwrap();
        let mut ctl = FixedSupplyController::new(Celsius::new(22.0));
        let dt = SimDuration::from_secs(30);
        let stats = room
            .run_controlled(&mut ctl, dt, 8, |_| Utilization::FULL)
            .unwrap();
        // 60 s period at 30 s steps over 4 min: decisions at t = 0,
        // 60, 120, 180 s; only the first commands a change.
        assert_eq!(stats.decisions, 4);
        assert_eq!(stats.applied, 1);
        assert_eq!(room.air().supply_temperature(), Celsius::new(22.0));
        assert_eq!(room.accounted_time(), SimDuration::from_secs(240));
        assert!(matches!(
            room.run_controlled(&mut ctl, SimDuration::ZERO, 1, |_| Utilization::FULL),
            Err(CoreError::Invalid { .. })
        ));
    }

    #[test]
    fn fault_injection_validated_and_reversible() {
        let mut room = Room::new(small()).unwrap();
        pin_fans(&mut room, 3000.0);

        // Bad parameters and indices come back as typed errors.
        assert!(matches!(
            room.set_crah_capacity(1.5),
            Err(RoomError::InvalidFault { .. })
        ));
        assert!(matches!(
            room.set_tile_blockage(99, 0.5),
            Err(RoomError::RackOutOfRange { rack: 99, .. })
        ));
        assert!(matches!(
            room.set_tile_blockage(0, f64::NAN),
            Err(RoomError::InvalidFault { .. })
        ));
        assert!(matches!(
            room.inject_fan_fault(99, 0, FanFault::Stuck),
            Err(RoomError::RackOutOfRange { .. })
        ));
        assert!(matches!(
            room.inject_fan_fault(0, 99, FanFault::Stuck),
            Err(RoomError::ServerOutOfRange { .. })
        ));
        assert!(matches!(
            room.inject_fan_fault(0, 0, FanFault::Degraded { flow_scale: 2.0 }),
            Err(RoomError::InvalidFault { .. })
        ));

        // Settle healthy, then derate the CRAH to half capacity: the
        // room runs hotter, and restoring capacity cools it back.
        let dt = SimDuration::from_secs(1);
        for _ in 0..1_800 {
            room.step(dt, Utilization::FULL).unwrap();
        }
        let healthy = room.max_die_temperature();
        room.set_crah_capacity(0.5).unwrap();
        assert_eq!(room.crah_capacity(), 0.5);
        for _ in 0..1_800 {
            room.step(dt, Utilization::FULL).unwrap();
        }
        let derated = room.max_die_temperature();
        assert!(
            derated.degrees() > healthy.degrees() + 1.0,
            "healthy {healthy:?} vs derated {derated:?}"
        );
        room.set_crah_capacity(1.0).unwrap();
        for _ in 0..3_600 {
            room.step(dt, Utilization::FULL).unwrap();
        }
        assert!(room.max_die_temperature().degrees() < healthy.degrees() + 0.5);

        // Tile blockage and fan faults round-trip through the room API.
        let commanded = room.air().tile_flow(1).unwrap();
        room.set_tile_blockage(1, 0.6).unwrap();
        assert!((room.tile_blockage(1).unwrap() - 0.6).abs() < 1e-12);
        assert!(room.air().tile_flow(1).unwrap().value() < commanded.value());
        room.set_tile_blockage(1, 0.0).unwrap();
        assert_eq!(room.air().tile_flow(1).unwrap(), commanded);

        room.inject_fan_fault(1, 2, FanFault::Stuck).unwrap();
        assert_eq!(room.fan_fault(1, 2).unwrap(), FanFault::Stuck);
        room.inject_fan_fault(1, 2, FanFault::None).unwrap();
        assert_eq!(room.fan_fault(1, 2).unwrap(), FanFault::None);
    }

    #[test]
    fn checkpoint_restores_bit_identically_across_plans() {
        let mut config = RoomConfig::new(2, 2, 2);
        config.recirculation_fraction = 0.25;
        let schedule = |step: u64| {
            if step % 60 < 30 {
                Utilization::FULL
            } else {
                Utilization::IDLE
            }
        };
        let dt = SimDuration::from_secs(1);

        // Reference: uninterrupted 240-step run with faults injected
        // mid-way (so fault state is part of the snapshot).
        let mut live = Room::with_plan(config.clone(), ShardPlan::new(1)).unwrap();
        pin_fans(&mut live, 2700.0);
        for step in 0..120 {
            live.step(dt, schedule(step)).unwrap();
        }
        live.set_crah_capacity(0.7).unwrap();
        live.set_tile_blockage(2, 0.3).unwrap();
        live.inject_fan_fault(1, 0, FanFault::Degraded { flow_scale: 0.5 })
            .unwrap();
        let snap = live.checkpoint();
        assert_eq!(snap.racks(), 4);
        assert_eq!(snap.accounted_time(), SimDuration::from_secs(120));
        for step in 120..240 {
            live.step(dt, schedule(step)).unwrap();
        }
        let fingerprint = |room: &Room| {
            let aisles: Vec<u64> = (0..room.racks())
                .map(|r| room.cold_aisle_temperature(r).degrees().to_bits())
                .collect();
            (
                room.total_energy().value().to_bits(),
                room.max_die_temperature().degrees().to_bits(),
                room.cooling_energy().value().to_bits(),
                aisles,
            )
        };
        let reference = fingerprint(&live);
        // Checkpointing must not perturb the live run: `live` already
        // continued past the capture point and is our reference.

        // Restore into a fresh room under a different thread plan and
        // replay the tail — bit-identical, fault state included.
        let mut resumed = Room::with_plan(config.clone(), ShardPlan::new(4)).unwrap();
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.crah_capacity(), 0.7);
        assert!((resumed.tile_blockage(2).unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(
            resumed.fan_fault(1, 0).unwrap(),
            FanFault::Degraded { flow_scale: 0.5 }
        );
        for step in 120..240 {
            resumed.step(dt, schedule(step)).unwrap();
        }
        assert_eq!(fingerprint(&resumed), reference);

        // A mismatched room rejects the checkpoint without touching it.
        let mut other = Room::new(RoomConfig::new(1, 2, 2)).unwrap();
        assert!(matches!(
            other.restore(&snap),
            Err(RoomError::CheckpointMismatch { .. })
        ));
    }
}
