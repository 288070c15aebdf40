//! A building: many [`Room`]s sharing one chilled-water plant.
//!
//! This is the datacenter scale-out of the room model: every room's
//! CRAH units reject heat into a single [`ChilledWaterLoop`], so plant
//! faults (chiller derate, heat waves, supply-temperature excursions)
//! couple rooms that never exchange air. The coupling runs both ways:
//!
//! - **Capacity.** When the plant is oversubscribed, every room's CRAH
//!   capacity is derated by the plant's delivered fraction — rooms
//!   compete for degraded cooling.
//! - **Supply floor.** A CRAH cannot blow air colder than the chilled
//!   water it is fed plus an air-side approach, so a chilled-water
//!   excursion raises the floor under every controller's supply
//!   set-point.
//!
//! Stepping mirrors the room's operator split one level up: a **serial
//! plant phase** (sum the rooms' heat, update the loop, propagate
//! capacity/floor into each room in index order) followed by a
//! **parallel room phase** (rooms shard across scoped workers through
//! the same `run_sharded` helper the fleets use). Rooms interact only
//! through the serial phase, so building trajectories are
//! **bit-identical for any thread plan** (`LEAKCTL_THREADS`).
//!
//! The building is also the write path for the supervision layer
//! ([`crate::supervise`]): per-room **power caps** clamp the activity a
//! room is allowed to run (load shedding), and [`Building::apply`]
//! records each room's *commanded* supply so the chilled-water floor
//! can be re-imposed or relaxed as the plant state moves.

use leakctl_thermal::{ChilledWaterLoop, ChilledWaterSpec, ShardPlan};
use leakctl_units::{Celsius, Joules, SimDuration, Utilization, Watts};

use crate::control::{ControlAction, RoomObservation};
use crate::error::{BuildingError, CoreError};
use crate::fleet::run_sharded;
use crate::room::{Room, RoomCheckpoint, RoomConfig};

/// Scenario builder for a [`Building`]: per-room configurations, the
/// shared chilled-water plant, and the CRAH air-side approach.
#[derive(Debug, Clone)]
pub struct BuildingConfig {
    /// One configuration per room (rooms may differ in geometry).
    pub rooms: Vec<RoomConfig>,
    /// The shared chilled-water plant.
    pub plant: ChilledWaterSpec,
    /// Air-side approach in °C: the coldest CRAH supply is the
    /// chilled-water temperature plus this margin.
    pub air_approach: f64,
}

impl BuildingConfig {
    /// A building of `rooms` identical rooms, with each room's sensor
    /// seed offset so no two rooms share RNG streams.
    #[must_use]
    pub fn uniform(rooms: usize, room: &RoomConfig, plant: ChilledWaterSpec) -> Self {
        let rooms = (0..rooms)
            .map(|i| {
                let mut cfg = room.clone();
                cfg.seed = room.seed.wrapping_add((i as u64) * 1_000_003);
                cfg
            })
            .collect();
        Self {
            rooms,
            plant,
            air_approach: 5.0,
        }
    }

    /// Validates the building-level parameters (room configs validate
    /// on construction).
    pub fn validate(&self) -> Result<(), BuildingError> {
        if self.rooms.is_empty() {
            return Err(BuildingError::InvalidFault {
                what: "a building needs at least one room",
            });
        }
        if !(self.air_approach.is_finite() && self.air_approach >= 0.0) {
            return Err(BuildingError::InvalidFault {
                what: "air approach must be finite and non-negative",
            });
        }
        self.plant.validate().map_err(BuildingError::Plant)
    }
}

/// Many rooms behind one chilled-water plant — see the module docs for
/// the stepping contract.
#[derive(Debug)]
pub struct Building {
    rooms: Vec<Room>,
    plant: ChilledWaterLoop,
    plan: ShardPlan,
    air_approach: f64,
    /// The supply each room's controller last commanded; the effective
    /// supply is this clamped to the chilled-water floor.
    commanded_supply: Vec<Celsius>,
    /// Room-local CRAH health (fault knob, 1 = healthy); composes
    /// multiplicatively with the plant's delivered fraction.
    room_crah_health: Vec<f64>,
    /// Supervision knob: activity fraction each room may run.
    power_caps: Vec<f64>,
    /// Scratch: per-room activity after power caps.
    eff_loads: Vec<Utilization>,
    accounted: SimDuration,
}

impl Building {
    /// Builds a building with the thread plan taken from
    /// `LEAKCTL_THREADS` (see [`ShardPlan::from_env`]).
    pub fn new(config: &BuildingConfig) -> Result<Self, CoreError> {
        Self::with_plan(config, ShardPlan::from_env())
    }

    /// Builds a building sharding its *rooms* across `plan`; each room
    /// is built single-sharded internally, so rooms are the unit of
    /// parallelism. The trajectory does not depend on the plan.
    pub fn with_plan(config: &BuildingConfig, plan: ShardPlan) -> Result<Self, CoreError> {
        config.validate()?;
        let rooms = config
            .rooms
            .iter()
            .map(|cfg| Room::with_plan(cfg.clone(), ShardPlan::new(1)))
            .collect::<Result<Vec<_>, _>>()?;
        let plant = ChilledWaterLoop::new(config.plant).map_err(BuildingError::Plant)?;
        let commanded_supply = rooms
            .iter()
            .map(|room| room.air().supply_temperature())
            .collect();
        let n = rooms.len();
        Ok(Self {
            rooms,
            plant,
            plan: plan.with_min_lanes_per_shard(1),
            air_approach: config.air_approach,
            commanded_supply,
            room_crah_health: vec![1.0; n],
            power_caps: vec![1.0; n],
            eff_loads: Vec::with_capacity(n),
            accounted: SimDuration::ZERO,
        })
    }

    /// Number of rooms.
    #[must_use]
    pub fn rooms(&self) -> usize {
        self.rooms.len()
    }

    fn check_room(&self, room: usize) -> Result<(), BuildingError> {
        if room >= self.rooms.len() {
            return Err(BuildingError::RoomOutOfRange {
                room,
                rooms: self.rooms.len(),
            });
        }
        Ok(())
    }

    /// Room `room`, read-only.
    pub fn room(&self, room: usize) -> Result<&Room, BuildingError> {
        self.check_room(room)?;
        Ok(&self.rooms[room])
    }

    /// Room `room`, mutable — for room-local fault injection
    /// (tile blockages, fan faults). Room-level CRAH derates should go
    /// through [`set_room_crah_health`](Self::set_room_crah_health)
    /// instead: the building re-imposes the plant-composed capacity
    /// every step, so a direct `set_crah_capacity` would be overwritten.
    pub fn room_mut(&mut self, room: usize) -> Result<&mut Room, BuildingError> {
        self.check_room(room)?;
        Ok(&mut self.rooms[room])
    }

    /// The shared plant, read-only.
    #[must_use]
    pub fn plant(&self) -> &ChilledWaterLoop {
        &self.plant
    }

    /// The coldest air any CRAH can currently supply: chilled water
    /// plus the air-side approach.
    #[must_use]
    pub fn supply_floor(&self) -> Celsius {
        Celsius::new(self.plant.chw_supply().degrees() + self.air_approach)
    }

    // ---- fault knobs -----------------------------------------------------

    /// Sets the outdoor temperature (heat-wave injector).
    pub fn set_outdoor(&mut self, outdoor: Celsius) -> Result<(), BuildingError> {
        self.plant
            .set_outdoor(outdoor)
            .map_err(BuildingError::Plant)
    }

    /// Sets the mechanical chiller's availability in `[0, 1]`
    /// (derate/outage injector).
    pub fn set_chiller_availability(&mut self, fraction: f64) -> Result<(), BuildingError> {
        self.plant
            .set_chiller_availability(fraction)
            .map_err(BuildingError::Plant)
    }

    /// Sets a chilled-water supply-temperature excursion in °C above
    /// design.
    pub fn set_chw_excursion(&mut self, excursion: f64) -> Result<(), BuildingError> {
        self.plant
            .set_supply_excursion(excursion)
            .map_err(BuildingError::Plant)
    }

    /// Sets room `room`'s local CRAH health in `[0, 1]`; the room's
    /// effective CRAH capacity is `health × plant delivered fraction`.
    pub fn set_room_crah_health(&mut self, room: usize, health: f64) -> Result<(), BuildingError> {
        self.check_room(room)?;
        if !(health.is_finite() && (0.0..=1.0).contains(&health)) {
            return Err(BuildingError::InvalidFault {
                what: "room CRAH health must lie in [0, 1]",
            });
        }
        self.room_crah_health[room] = health;
        Ok(())
    }

    /// Room `room`'s local CRAH health.
    pub fn room_crah_health(&self, room: usize) -> Result<f64, BuildingError> {
        self.check_room(room)?;
        Ok(self.room_crah_health[room])
    }

    // ---- supervision knobs -----------------------------------------------

    /// Caps the activity fraction room `room` may run (load shedding);
    /// 1 releases the cap. The cap clamps the load passed to
    /// [`step`](Self::step).
    pub fn set_power_cap(&mut self, room: usize, cap: f64) -> Result<(), BuildingError> {
        self.check_room(room)?;
        if !(cap.is_finite() && (0.0..=1.0).contains(&cap)) {
            return Err(BuildingError::InvalidFault {
                what: "power cap must lie in [0, 1]",
            });
        }
        self.power_caps[room] = cap;
        Ok(())
    }

    /// Room `room`'s current power cap.
    pub fn power_cap(&self, room: usize) -> Result<f64, BuildingError> {
        self.check_room(room)?;
        Ok(self.power_caps[room])
    }

    // ---- control path ----------------------------------------------------

    /// Observes room `room` into `obs` (see [`Room::observe_into`]).
    pub fn observe_room_into(
        &self,
        room: usize,
        obs: &mut RoomObservation,
    ) -> Result<(), BuildingError> {
        self.check_room(room)?;
        self.rooms[room].observe_into(obs);
        Ok(())
    }

    /// Validates and applies a control action to room `room` — the one
    /// write path building controllers and the supervisor drive. The
    /// commanded supply is recorded as the room's set-point and clamped
    /// to the chilled-water [`supply_floor`](Self::supply_floor) before
    /// it reaches the CRAH; as the floor moves, the building converges
    /// each room back toward its commanded value.
    pub fn apply(&mut self, room: usize, action: &ControlAction) -> Result<(), CoreError> {
        self.check_room(room)?;
        let mut effective = action.clone();
        if let Some(supply) = action.supply {
            if !supply.is_finite() {
                return Err(CoreError::Invalid {
                    what: "supply set-point must be finite".to_owned(),
                });
            }
            let floor = self.supply_floor();
            effective.supply = Some(supply.max(floor));
        }
        self.rooms[room].apply(&effective)?;
        if let Some(supply) = action.supply {
            // Record only after a successful apply, so a rejected action
            // leaves no trace (atomicity).
            self.commanded_supply[room] = supply;
        }
        Ok(())
    }

    /// Room `room`'s last commanded supply (before floor clamping).
    pub fn commanded_supply(&self, room: usize) -> Result<Celsius, BuildingError> {
        self.check_room(room)?;
        Ok(self.commanded_supply[room])
    }

    // ---- stepping --------------------------------------------------------

    /// Advances the building by `dt` with one activity level per room.
    ///
    /// Serial plant phase: the loop sees the building's IT power as
    /// demand and the rooms' CRAH extraction as rejected heat, then each
    /// room (in index order) receives its derated CRAH capacity and the
    /// floor-clamped supply. Parallel room phase: rooms shard across
    /// workers; each steps with its power-cap-clamped load.
    ///
    /// # Errors
    ///
    /// Returns [`BuildingError::InvalidFault`] when `loads` does not
    /// have one entry per room, and propagates room/solver failures.
    pub fn step(&mut self, dt: SimDuration, loads: &[Utilization]) -> Result<(), CoreError> {
        if loads.len() != self.rooms.len() {
            return Err(BuildingError::InvalidFault {
                what: "one activity level per room required",
            }
            .into());
        }
        if dt.is_zero() {
            return Ok(());
        }

        // ---- plant phase (serial, room index order).
        let mut demand = Watts::ZERO;
        let mut removed = Watts::ZERO;
        for room in &self.rooms {
            demand += room.total_power();
            removed += Watts::new(room.air().crah_heat_removed().value().max(0.0));
        }
        self.plant.update(demand, removed, dt);
        let fraction = self.plant.delivered_fraction();
        let floor = self.supply_floor();
        for (r, room) in self.rooms.iter_mut().enumerate() {
            let capacity = (self.room_crah_health[r] * fraction).clamp(0.0, 1.0);
            if capacity != room.crah_capacity() {
                room.set_crah_capacity(capacity)
                    .map_err(|source| BuildingError::Room { room: r, source })?;
            }
            let effective = self.commanded_supply[r].max(floor);
            if effective != room.air().supply_temperature() {
                room.apply(&ControlAction::hold().with_supply(effective))?;
            }
        }

        // ---- room phase (parallel): rooms are independent within the
        // step (they couple only through the plant phase above), so any
        // partition is bit-identical.
        self.eff_loads.clear();
        self.eff_loads
            .extend(loads.iter().zip(&self.power_caps).map(|(&load, &cap)| {
                Utilization::saturating_from_fraction(load.as_fraction().min(cap))
            }));
        let ranges = self.plan.ranges(self.rooms.len());
        let eff_loads = &self.eff_loads;
        run_sharded(&mut self.rooms, &ranges, |chunk, range| {
            for (room, &load) in chunk.iter_mut().zip(&eff_loads[range]) {
                room.step(dt, load)?;
            }
            Ok::<(), CoreError>(())
        })?;
        self.accounted += dt;
        Ok(())
    }

    // ---- telemetry and accounting ----------------------------------------

    /// Hottest die temperature across all rooms.
    #[must_use]
    pub fn max_die_temperature(&self) -> Celsius {
        self.rooms
            .iter()
            .map(Room::max_die_temperature)
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
    }

    /// Total IT power across all rooms.
    #[must_use]
    pub fn total_power(&self) -> Watts {
        self.rooms.iter().map(Room::total_power).sum()
    }

    /// Cumulative IT energy across all rooms.
    #[must_use]
    pub fn it_energy(&self) -> Joules {
        self.rooms.iter().map(Room::it_energy).sum()
    }

    /// Cumulative plant electricity (the building-level cooling bill,
    /// through the outdoor-dependent plant COP; the rooms' own
    /// [`Room::cooling_energy`] remains the room-attributed view through
    /// their static COP models).
    #[must_use]
    pub fn plant_energy(&self) -> Joules {
        self.plant.energy()
    }

    /// IT energy plus plant electricity.
    #[must_use]
    pub fn total_energy(&self) -> Joules {
        self.it_energy() + self.plant_energy()
    }

    /// Simulated time accounted by [`step`](Self::step).
    #[must_use]
    pub fn accounted_time(&self) -> SimDuration {
        self.accounted
    }

    /// Clears every room's and the plant's energy/time accumulators.
    pub fn reset_accounting(&mut self) {
        for room in &mut self.rooms {
            room.reset_accounting();
        }
        self.plant.reset_accounting();
        self.accounted = SimDuration::ZERO;
    }

    // ---- checkpoint / restore --------------------------------------------

    /// Snapshots the whole building: every room's checkpoint, the plant
    /// state (including fault knobs), and the building-level control
    /// state (commanded supplies, CRAH health, power caps).
    pub fn checkpoint(&mut self) -> BuildingCheckpoint {
        BuildingCheckpoint {
            rooms: self.rooms.iter_mut().map(Room::checkpoint).collect(),
            plant: self.plant.clone(),
            commanded_supply: self.commanded_supply.clone(),
            room_crah_health: self.room_crah_health.clone(),
            power_caps: self.power_caps.clone(),
            accounted: self.accounted,
        }
    }

    /// Restores a [`Building::checkpoint`] — into this building or any
    /// building built from the same config under any thread plan. Every
    /// room's checkpoint is validated before anything is touched, so a
    /// rejected restore never leaves the building half-restored.
    ///
    /// # Errors
    ///
    /// Returns [`BuildingError::CheckpointMismatch`] when the room
    /// count differs, and [`BuildingError::Room`] naming the first room
    /// whose checkpoint does not fit.
    pub fn restore(&mut self, checkpoint: &BuildingCheckpoint) -> Result<(), BuildingError> {
        if checkpoint.rooms.len() != self.rooms.len() {
            return Err(BuildingError::CheckpointMismatch {
                what: format!(
                    "checkpoint holds {} rooms, building has {}",
                    checkpoint.rooms.len(),
                    self.rooms.len()
                ),
            });
        }
        for (r, (room, snap)) in self.rooms.iter().zip(&checkpoint.rooms).enumerate() {
            room.can_restore(snap)
                .map_err(|source| BuildingError::Room { room: r, source })?;
        }
        for (r, (room, snap)) in self.rooms.iter_mut().zip(&checkpoint.rooms).enumerate() {
            room.restore(snap)
                .map_err(|source| BuildingError::Room { room: r, source })?;
        }
        self.plant = checkpoint.plant.clone();
        self.commanded_supply
            .clone_from(&checkpoint.commanded_supply);
        self.room_crah_health
            .clone_from(&checkpoint.room_crah_health);
        self.power_caps.clone_from(&checkpoint.power_caps);
        self.accounted = checkpoint.accounted;
        Ok(())
    }
}

/// Snapshot of a [`Building`] — see [`Building::checkpoint`].
#[derive(Debug, Clone)]
pub struct BuildingCheckpoint {
    rooms: Vec<RoomCheckpoint>,
    plant: ChilledWaterLoop,
    commanded_supply: Vec<Celsius>,
    room_crah_health: Vec<f64>,
    power_caps: Vec<f64>,
    accounted: SimDuration,
}

impl BuildingCheckpoint {
    /// Number of rooms in the snapshot.
    #[must_use]
    pub fn rooms(&self) -> usize {
        self.rooms.len()
    }

    /// Simulated time at the snapshot.
    #[must_use]
    pub fn accounted_time(&self) -> SimDuration {
        self.accounted
    }
}
