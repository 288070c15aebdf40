//! Fault-injection scenario harness: scripted fault/recovery/load
//! timelines driven through the closed control loop, with
//! checkpoint/restore across the whole run.
//!
//! A [`Scenario`] is a deterministic script — timed [`ScenarioEvent`]s
//! (CRAH derating/outage, tile blockage, fan faults, load moves) over a
//! fixed duration and step size, plus the thermal cap the run is judged
//! against. A [`ScenarioRunner`] drives a [`Room`] and a
//! [`RoomController`] through the script on the same loop as
//! [`Room::run_controlled`] — decide at the first step, then every
//! period — while sampling the hottest die every step to account cap
//! violations and recovery (the fields [`ControlStats`] grew for this
//! module). [`BuildingScenario`] and [`BuildingScenarioRunner`] do the
//! same for a supervised [`Building`].
//!
//! The runner is resumable: [`ScenarioRunner::checkpoint`] captures the
//! room ([`Room::checkpoint`]), the controller
//! ([`RoomController::checkpoint_state`]) and the runner's own cursor
//! (event index, loads, decision phase, accumulated stats), and
//! [`ScenarioRunner::restore`] resumes the trajectory **bit-identically**
//! to an uninterrupted run, for any thread plan — the property the
//! `checkpoint_restore` integration proptest pins.
//!
//! # Example
//!
//! ```
//! use leakctl::control::FixedSupplyController;
//! use leakctl::room::{Room, RoomConfig};
//! use leakctl::scenario::{Scenario, ScenarioEvent, ScenarioRunner};
//! use leakctl_units::{Celsius, SimDuration};
//!
//! # fn main() -> Result<(), leakctl::CoreError> {
//! let scenario = Scenario::new("derate", SimDuration::from_mins(10), SimDuration::from_secs(1))
//!     .at(SimDuration::from_mins(2), ScenarioEvent::CrahCapacity(0.5))
//!     .at(SimDuration::from_mins(6), ScenarioEvent::CrahCapacity(1.0));
//! let mut room = Room::new(RoomConfig::new(1, 2, 2))?;
//! let mut controller = FixedSupplyController::new(Celsius::new(18.0));
//! let outcome = ScenarioRunner::new(scenario).run(&mut room, &mut controller)?;
//! assert_eq!(outcome.events_applied, 2);
//! # Ok(())
//! # }
//! ```

use std::ops::DerefMut;

use leakctl_platform::FanFault;
use leakctl_units::{Celsius, Joules, SimDuration, Utilization};

use crate::building::{Building, BuildingCheckpoint};
use crate::control::{RoomController, RoomObservation};
use crate::drive::{Drive, Site, Stages};
use crate::error::{BuildingError, CoreError, RoomError};
use crate::room::{ControlStats, Room, RoomCheckpoint};
use crate::supervise::{Supervisor, TripCounts};

pub use crate::drive::Script;

/// One timed move in a [`Scenario`] script.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioEvent {
    /// Derates the CRAH plant to a capacity factor (`1.0` restores a
    /// healthy plant, `0.0` is a full outage).
    CrahCapacity(f64),
    /// Blocks a fraction of one rack's perforated tile (`0.0` clears).
    TileBlockage {
        /// Rack whose tile is obstructed.
        rack: usize,
        /// Blocked fraction in `[0, 1]`.
        blockage: f64,
    },
    /// Injects (or clears, with [`FanFault::None`]) a fan-bank fault.
    FanFault {
        /// Rack of the faulted server.
        rack: usize,
        /// Server index within the rack.
        server: usize,
        /// The fault to inject.
        fault: FanFault,
    },
    /// Moves the room-wide activity level (load spikes and dips).
    Load(Utilization),
}

/// A fault/recovery/load [`Script`] for one room.
pub type Scenario = Script<ScenarioEvent>;

/// What a scenario run produced: the extended loop counters and the
/// room's energy/thermal bottom line.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ScenarioOutcome {
    /// The script's name.
    pub name: String,
    /// Loop counters, cap-violation time, recovery time (see
    /// [`ControlStats`]).
    pub stats: ControlStats,
    /// Total room energy (IT + cooling) over the run.
    pub total_energy: Joules,
    /// IT (server + fan) energy over the run.
    pub it_energy: Joules,
    /// CRAH cooling energy over the run.
    pub cooling_energy: Joules,
    /// The hottest die at the end of the run.
    pub final_max_die: Celsius,
    /// Events that fired (equals the script's count after a full run).
    pub events_applied: usize,
}

impl ScenarioOutcome {
    /// `true` when the hottest die never exceeded the cap.
    #[must_use]
    pub fn stayed_under_cap(&self) -> bool {
        self.stats.cap_violation_time.is_zero()
    }

    /// Fills [`ControlStats::energy_overhead`] relative to a reference
    /// run of the same script (typically fault-free or under a
    /// different controller).
    pub fn set_energy_overhead_vs(&mut self, reference: &ScenarioOutcome) {
        self.stats.energy_overhead = Some(self.total_energy - reference.total_energy);
    }
}

/// Everything needed to resume a script run mid-flight: the site
/// snapshot, every controller's opaque state, the supervisor's state
/// (buildings only) and the runner's cursor.
#[derive(Debug, Clone)]
pub struct ScriptCheckpoint<K> {
    site: K,
    controllers: Vec<Vec<f64>>,
    supervisor: Vec<f64>,
    cursor: Cursor,
}

impl<K> ScriptCheckpoint<K> {
    /// The step the run was captured at.
    #[must_use]
    pub fn step(&self) -> u64 {
        self.cursor.drive.step()
    }
}

/// A [`ScenarioRunner`] checkpoint.
pub type ScenarioCheckpoint = ScriptCheckpoint<RoomCheckpoint>;

/// A script run's progress outside the site and its actors.
#[derive(Debug, Clone)]
struct Cursor {
    drive: Drive,
    /// Index of the next script event, which is also the number fired.
    next_event: usize,
    /// Per-room activity level.
    loads: Vec<Utilization>,
}

/// Drives a site through a [`Script`], step by step, with
/// checkpoint/restore at any step boundary: a [`Room`] and its
/// controller ([`ScenarioRunner`]), or a supervised [`Building`] with
/// one controller per room ([`BuildingScenarioRunner`]). Every cadence
/// carries across `run_steps` chunks and checkpoints, so any chunking
/// of a script runs the same trajectory.
#[derive(Debug)]
pub struct ScriptRunner<E> {
    scenario: Script<E>,
    cursor: Cursor,
    obs: RoomObservation,
}

impl<E> ScriptRunner<E> {
    fn with_rooms(scenario: Script<E>, rooms: usize) -> Self {
        let cursor = Cursor {
            drive: Drive::new(rooms, scenario.die_cap()),
            next_event: 0,
            loads: vec![scenario.initial_load(); rooms],
        };
        Self {
            scenario,
            cursor,
            obs: RoomObservation::new(),
        }
    }

    /// The script being driven.
    #[must_use]
    pub fn scenario(&self) -> &Script<E> {
        &self.scenario
    }

    /// `true` once every scripted step has run.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.step() >= self.scenario.steps()
    }

    /// The current step index (steps completed so far).
    #[must_use]
    pub fn step(&self) -> u64 {
        self.cursor.drive.step()
    }

    /// Runs up to `steps` further steps, stopping at the script's end.
    fn drive<'c, S, C>(
        &mut self,
        site: &mut S,
        controllers: &mut [C],
        supervisor: Option<&mut Supervisor>,
        steps: u64,
    ) -> Result<(), CoreError>
    where
        S: Site,
        C: DerefMut<Target = dyn RoomController + 'c>,
        for<'a> Scripted<'a, E>: Stages<S>,
    {
        let steps = self.scenario.steps().saturating_sub(self.step()).min(steps);
        let cursor = &mut self.cursor;
        let mut stages = Scripted {
            script: &self.scenario,
            next_event: &mut cursor.next_event,
            loads: &mut cursor.loads,
            supervisor,
        };
        let dt = self.scenario.dt();
        cursor
            .drive
            .run(site, controllers, &mut stages, &mut self.obs, dt, steps)
    }
}

/// The scripted stages; the supervisor is for buildings only.
struct Scripted<'a, E> {
    script: &'a Script<E>,
    next_event: &'a mut usize,
    loads: &'a mut [Utilization],
    supervisor: Option<&'a mut Supervisor>,
}

impl Stages<Room> for Scripted<'_, ScenarioEvent> {
    fn events(&mut self, room: &mut Room, now: SimDuration) -> Result<(), CoreError> {
        let load = &mut self.loads[0];
        self.script.fire(self.next_event, now, |event| {
            match *event {
                ScenarioEvent::CrahCapacity(capacity) => room.set_crah_capacity(capacity)?,
                ScenarioEvent::TileBlockage { rack, blockage } => {
                    room.set_tile_blockage(rack, blockage)?;
                }
                ScenarioEvent::FanFault {
                    rack,
                    server,
                    fault,
                } => room.inject_fan_fault(rack, server, fault)?,
                ScenarioEvent::Load(to) => *load = to,
            }
            Ok(())
        })
    }

    fn step(&mut self, room: &mut Room, dt: SimDuration, _step: u64) -> Result<(), CoreError> {
        room.step(dt, self.loads[0])
    }
}

/// Drives a [`Room`] and a [`RoomController`] through a [`Scenario`].
///
/// Per step: due events are applied first, then (every decision
/// period, and at `t = 0`) the controller decides against the
/// post-event room — so a CRAH outage is visible to the very decision
/// made at the instant it strikes — then the room advances and the
/// hottest die is sampled against the cap.
pub type ScenarioRunner = ScriptRunner<ScenarioEvent>;

impl ScriptRunner<ScenarioEvent> {
    /// A runner positioned at the start of `scenario`.
    #[must_use]
    pub fn new(scenario: Scenario) -> Self {
        Self::with_rooms(scenario, 1)
    }

    /// Runs the remainder of the script and reports the outcome.
    ///
    /// # Errors
    ///
    /// Propagates room/controller failures ([`CoreError`]); scripted
    /// events with bad parameters surface as [`CoreError::Room`].
    pub fn run(
        &mut self,
        room: &mut Room,
        controller: &mut dyn RoomController,
    ) -> Result<ScenarioOutcome, CoreError> {
        self.run_steps(room, controller, u64::MAX)?;
        Ok(self.outcome(room))
    }

    /// Advances up to `steps` further steps (stopping at the script's
    /// end), e.g. to reach a checkpoint boundary mid-scenario.
    ///
    /// # Errors
    ///
    /// As [`ScenarioRunner::run`].
    pub fn run_steps(
        &mut self,
        room: &mut Room,
        mut controller: &mut dyn RoomController,
        steps: u64,
    ) -> Result<(), CoreError> {
        self.drive(room, std::slice::from_mut(&mut controller), None, steps)
    }

    /// The outcome so far (complete once the runner has
    /// [`finished`](ScriptRunner::finished)).
    /// Recovery time runs from the onset of the last cap excursion to
    /// the step after which the hottest die stays under the cap (see
    /// [`ControlStats::recovery_time`]).
    #[must_use]
    pub fn outcome(&self, room: &Room) -> ScenarioOutcome {
        ScenarioOutcome {
            name: self.scenario.name().to_owned(),
            stats: self.cursor.drive.stats(),
            total_energy: room.total_energy(),
            it_energy: room.it_energy(),
            cooling_energy: room.cooling_energy(),
            final_max_die: room.max_die_temperature(),
            events_applied: self.cursor.next_event,
        }
    }

    /// Captures the full run state — room, controller, cursor — at the
    /// current step boundary.
    #[must_use]
    pub fn checkpoint(
        &self,
        room: &mut Room,
        controller: &dyn RoomController,
    ) -> ScenarioCheckpoint {
        ScriptCheckpoint {
            site: room.checkpoint(),
            controllers: vec![controller.checkpoint_state()],
            supervisor: Vec::new(),
            cursor: self.cursor.clone(),
        }
    }

    /// Restores a [`ScenarioRunner::checkpoint`] into `room`,
    /// `controller` and this runner; the resumed run is bit-identical
    /// to one that was never interrupted (any thread plan).
    ///
    /// # Errors
    ///
    /// Returns [`RoomError::CheckpointMismatch`] when the room does not
    /// match the snapshot (the runner and controller are only touched
    /// after the room restore succeeds).
    pub fn restore(
        &mut self,
        room: &mut Room,
        controller: &mut dyn RoomController,
        checkpoint: &ScenarioCheckpoint,
    ) -> Result<(), RoomError> {
        room.restore(&checkpoint.site)?;
        controller.reset();
        controller.restore_state(&checkpoint.controllers[0]);
        self.cursor = checkpoint.cursor.clone();
        self.obs = RoomObservation::new();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Building-scale scenarios
// ---------------------------------------------------------------------------

/// One timed move in a [`BuildingScenario`] script — the building-scale
/// fault injectors, plus room-scoped [`ScenarioEvent`]s.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BuildingEvent {
    /// Derates the mechanical chiller to an availability factor
    /// (`1.0` restores a healthy chiller, `0.0` is a full outage).
    Chiller(f64),
    /// Raises the chilled-water supply temperature by this many °C
    /// above design (`0.0` clears the excursion).
    ChwExcursion(f64),
    /// Moves the outdoor temperature (heat waves; also drives
    /// economizer lockout and COP/capacity derates).
    Outdoor(Celsius),
    /// Moves one room's activity level.
    RoomLoad {
        /// Target room.
        room: usize,
        /// New activity level.
        load: Utilization,
    },
    /// Moves *every* room's activity level at once — the correlated
    /// multi-room surge.
    LoadSurge(Utilization),
    /// A room-scoped event from the room-scale script vocabulary.
    /// [`ScenarioEvent::CrahCapacity`] maps to the room's *local* CRAH
    /// health (the plant's derate composes on top);
    /// [`ScenarioEvent::Load`] moves that room's activity.
    Room {
        /// Target room.
        room: usize,
        /// The room-scale event.
        event: ScenarioEvent,
    },
}

/// A fault/recovery/load [`Script`] for a building; the initial load
/// applies to every room.
pub type BuildingScenario = Script<BuildingEvent>;

/// What a building scenario run produced: aggregated loop counters, the
/// building's energy bottom line, and the supervision record.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct BuildingOutcome {
    /// The script's name.
    pub name: String,
    /// Aggregated loop counters and cap accounting (violation time
    /// counts steps where *any* room's hottest die is over the cap).
    pub stats: ControlStats,
    /// IT energy plus plant electricity over the run.
    pub total_energy: Joules,
    /// IT (server + fan) energy over the run.
    pub it_energy: Joules,
    /// Plant electricity over the run.
    pub plant_energy: Joules,
    /// The hottest die across all rooms at the end of the run.
    pub final_max_die: Celsius,
    /// Events that fired.
    pub events_applied: usize,
    /// Invariant-monitor trip counters from the supervisor.
    pub trips: TripCounts,
    /// Times the watchdog entered a load shed.
    pub sheds: u64,
    /// Rooms escalated into safe mode.
    pub escalations: u64,
    /// Total simulated time spent shedding.
    pub shed_time: SimDuration,
}

impl BuildingOutcome {
    /// `true` when no room's hottest die ever exceeded the cap.
    #[must_use]
    pub fn stayed_under_cap(&self) -> bool {
        self.stats.cap_violation_time.is_zero()
    }

    /// Fills [`ControlStats::energy_overhead`] relative to a reference
    /// run of the same script.
    pub fn set_energy_overhead_vs(&mut self, reference: &BuildingOutcome) {
        self.stats.energy_overhead = Some(self.total_energy - reference.total_energy);
    }
}

/// A [`BuildingScenarioRunner`] checkpoint.
pub type BuildingScenarioCheckpoint = ScriptCheckpoint<BuildingCheckpoint>;

impl Stages<Building> for Scripted<'_, BuildingEvent> {
    fn events(&mut self, building: &mut Building, now: SimDuration) -> Result<(), CoreError> {
        let loads = &mut *self.loads;
        self.script.fire(self.next_event, now, |event| {
            match *event {
                BuildingEvent::Chiller(fraction) => building.set_chiller_availability(fraction)?,
                BuildingEvent::ChwExcursion(excursion) => building.set_chw_excursion(excursion)?,
                BuildingEvent::Outdoor(outdoor) => building.set_outdoor(outdoor)?,
                BuildingEvent::RoomLoad { room, load }
                | BuildingEvent::Room {
                    room,
                    event: ScenarioEvent::Load(load),
                } => {
                    let rooms = loads.len();
                    *loads
                        .get_mut(room)
                        .ok_or(BuildingError::RoomOutOfRange { room, rooms })? = load;
                }
                BuildingEvent::LoadSurge(load) => loads.fill(load),
                BuildingEvent::Room {
                    room,
                    event: ScenarioEvent::CrahCapacity(health),
                } => building.set_room_crah_health(room, health)?,
                BuildingEvent::Room {
                    room,
                    event: ScenarioEvent::TileBlockage { rack, blockage },
                } => building
                    .room_mut(room)?
                    .set_tile_blockage(rack, blockage)
                    .map_err(|source| BuildingError::Room { room, source })?,
                BuildingEvent::Room {
                    room,
                    event:
                        ScenarioEvent::FanFault {
                            rack,
                            server,
                            fault,
                        },
                } => building
                    .room_mut(room)?
                    .inject_fan_fault(rack, server, fault)
                    .map_err(|source| BuildingError::Room { room, source })?,
            }
            Ok(())
        })
    }

    fn supervise_period(&self) -> Option<SimDuration> {
        self.supervisor
            .as_ref()
            .map(|supervisor| supervisor.period())
    }

    fn supervise(&mut self, building: &mut Building) -> Result<(), CoreError> {
        match &mut self.supervisor {
            Some(supervisor) => supervisor.supervise(building),
            None => Ok(()),
        }
    }

    fn step(
        &mut self,
        building: &mut Building,
        dt: SimDuration,
        _step: u64,
    ) -> Result<(), CoreError> {
        building.step(dt, self.loads)
    }
}

/// Drives a [`Building`], one [`RoomController`] per room, and a
/// [`Supervisor`] through a [`BuildingScenario`].
///
/// Per step: due events fire first; then each room's controller decides
/// at its own cadence (from `t = 0`) against the post-event building;
/// then the supervisor runs at its cadence — *after* the controllers,
/// so watchdog actions override controller actions; then the building
/// advances and the hottest die across all rooms is judged against the
/// cap. All of it happens in room index order within the serial
/// section, so supervised runs are bit-identical for any thread plan.
pub type BuildingScenarioRunner = ScriptRunner<BuildingEvent>;

impl ScriptRunner<BuildingEvent> {
    /// A runner positioned at the start of `scenario`, for a building
    /// of `rooms` rooms.
    #[must_use]
    pub fn new(scenario: BuildingScenario, rooms: usize) -> Self {
        Self::with_rooms(scenario, rooms)
    }

    /// Runs the remainder of the script and reports the outcome.
    ///
    /// # Errors
    ///
    /// Propagates building/controller/supervisor failures; scripted
    /// events with bad parameters surface as [`CoreError::Building`].
    pub fn run(
        &mut self,
        building: &mut Building,
        controllers: &mut [Box<dyn RoomController>],
        supervisor: &mut Supervisor,
    ) -> Result<BuildingOutcome, CoreError> {
        self.run_steps(building, controllers, supervisor, u64::MAX)?;
        Ok(self.outcome(building, supervisor))
    }

    /// Advances up to `steps` further steps (stopping at the script's
    /// end).
    ///
    /// # Errors
    ///
    /// As [`BuildingScenarioRunner::run`].
    pub fn run_steps(
        &mut self,
        building: &mut Building,
        controllers: &mut [Box<dyn RoomController>],
        supervisor: &mut Supervisor,
        steps: u64,
    ) -> Result<(), CoreError> {
        self.drive(building, controllers, Some(supervisor), steps)
    }

    /// The outcome so far (complete once the runner has
    /// [`finished`](ScriptRunner::finished)).
    #[must_use]
    pub fn outcome(&self, building: &Building, supervisor: &Supervisor) -> BuildingOutcome {
        BuildingOutcome {
            name: self.scenario.name().to_owned(),
            stats: self.cursor.drive.stats(),
            total_energy: building.total_energy(),
            it_energy: building.it_energy(),
            plant_energy: building.plant_energy(),
            final_max_die: building.max_die_temperature(),
            events_applied: self.cursor.next_event,
            trips: supervisor.counts(),
            sheds: supervisor.sheds(),
            escalations: supervisor.escalations(),
            shed_time: supervisor.shed_time(),
        }
    }

    /// Captures the full run state — building, controllers, supervisor,
    /// cursor — at the current step boundary.
    #[must_use]
    pub fn checkpoint(
        &self,
        building: &mut Building,
        controllers: &[Box<dyn RoomController>],
        supervisor: &Supervisor,
    ) -> BuildingScenarioCheckpoint {
        ScriptCheckpoint {
            site: building.checkpoint(),
            controllers: controllers.iter().map(|c| c.checkpoint_state()).collect(),
            supervisor: supervisor.checkpoint_state(),
            cursor: self.cursor.clone(),
        }
    }

    /// Restores a [`BuildingScenarioRunner::checkpoint`]; the resumed
    /// run is bit-identical to one that was never interrupted, for any
    /// thread plan. The building restore is all-or-nothing and happens
    /// before controllers or supervisor are touched.
    ///
    /// # Errors
    ///
    /// Returns [`BuildingError::CheckpointMismatch`] when the building
    /// or the controller count does not match the snapshot.
    pub fn restore(
        &mut self,
        building: &mut Building,
        controllers: &mut [Box<dyn RoomController>],
        supervisor: &mut Supervisor,
        checkpoint: &BuildingScenarioCheckpoint,
    ) -> Result<(), BuildingError> {
        if controllers.len() != checkpoint.controllers.len() {
            return Err(BuildingError::CheckpointMismatch {
                what: format!(
                    "checkpoint holds {} controllers, run has {}",
                    checkpoint.controllers.len(),
                    controllers.len()
                ),
            });
        }
        building.restore(&checkpoint.site)?;
        for (controller, state) in controllers.iter_mut().zip(&checkpoint.controllers) {
            controller.reset();
            controller.restore_state(state);
        }
        supervisor.reset();
        supervisor.restore_state(&checkpoint.supervisor);
        self.cursor = checkpoint.cursor.clone();
        self.obs = RoomObservation::new();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{ControlAction, FixedSupplyController, LutSetPointController};
    use crate::room::RoomConfig;
    use leakctl_thermal::ShardPlan;
    use leakctl_units::Rpm;

    fn small_room(plan: usize) -> Room {
        let mut config = RoomConfig::new(1, 2, 2);
        config.recirculation_fraction = 0.2;
        let mut room = Room::with_plan(config, ShardPlan::new(plan)).unwrap();
        room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(3000.0)))
            .unwrap();
        room
    }

    #[test]
    fn events_fire_in_order_and_shape_the_run() {
        let scenario = Scenario::new(
            "derate-and-spike",
            SimDuration::from_secs(600),
            SimDuration::from_secs(1),
        )
        .with_initial_load(Utilization::saturating_from_fraction(0.25))
        .at(
            SimDuration::from_secs(120),
            ScenarioEvent::Load(Utilization::FULL),
        )
        .at(
            SimDuration::from_secs(180),
            ScenarioEvent::CrahCapacity(0.6),
        )
        .at(
            SimDuration::from_secs(400),
            ScenarioEvent::CrahCapacity(1.0),
        );
        assert_eq!(scenario.steps(), 600);
        assert_eq!(scenario.events(), 3);

        let mut room = small_room(1);
        let mut ctl = FixedSupplyController::new(Celsius::new(18.0));
        let mut runner = ScenarioRunner::new(scenario);
        let outcome = runner.run(&mut room, &mut ctl).unwrap();
        assert!(runner.finished());
        assert_eq!(outcome.events_applied, 3);
        // 60 s decision period over 600 s: t = 0 plus every minute.
        assert_eq!(outcome.stats.decisions, 10);
        assert_eq!(room.crah_capacity(), 1.0);
        assert_eq!(room.accounted_time(), SimDuration::from_secs(600));
        assert!(outcome.stats.peak_die >= outcome.final_max_die);
        assert!(outcome.total_energy == outcome.it_energy + outcome.cooling_energy);
    }

    #[test]
    fn cap_violations_and_recovery_are_accounted() {
        // A low cap plus a full outage forces an excursion (the peak
        // arrives after the plant is restored — thermal lag); the
        // recovered plant pulls the room back under the cap before the
        // script ends.
        let scenario = Scenario::new(
            "outage",
            SimDuration::from_secs(2_000),
            SimDuration::from_secs(1),
        )
        .with_die_cap(Celsius::new(60.0))
        .at(
            SimDuration::from_secs(300),
            ScenarioEvent::CrahCapacity(0.0),
        )
        .at(
            SimDuration::from_secs(540),
            ScenarioEvent::CrahCapacity(1.0),
        );

        let mut room = small_room(1);
        let mut ctl = FixedSupplyController::new(Celsius::new(18.0));
        let outcome = ScenarioRunner::new(scenario)
            .run(&mut room, &mut ctl)
            .unwrap();
        assert!(!outcome.stayed_under_cap());
        assert!(outcome.stats.cap_violation_time >= SimDuration::from_secs(10));
        let recovery = outcome.stats.recovery_time.expect("room recovers");
        assert!(recovery > SimDuration::ZERO);
        assert!(outcome.stats.peak_die > Celsius::new(60.0));
        // The fixed baseline ends the run back under the cap here only
        // because the fault itself was cleared.
        assert!(outcome.final_max_die < Celsius::new(60.0));

        // Energy overhead vs a fault-free reference of the same script.
        let free = Scenario::new(
            "fault-free",
            SimDuration::from_secs(2_000),
            SimDuration::from_secs(1),
        );
        let mut reference_room = small_room(1);
        let mut reference_ctl = FixedSupplyController::new(Celsius::new(18.0));
        let reference = ScenarioRunner::new(free)
            .run(&mut reference_room, &mut reference_ctl)
            .unwrap();
        let mut judged = outcome;
        judged.set_energy_overhead_vs(&reference);
        assert!(judged.stats.energy_overhead.is_some());
    }

    #[test]
    fn excursion_that_ends_before_the_fault_clears_has_a_recovery_time() {
        // The derated plant stays faulted for the whole excursion and
        // beyond: a load spike pushes the die over the cap and the load
        // drop brings it back while the fault is still in place. The
        // fault clearing afterwards does not reset the measurement.
        let scenario = Scenario::new(
            "spike-under-derate",
            SimDuration::from_secs(1_500),
            SimDuration::from_secs(1),
        )
        .with_initial_load(Utilization::saturating_from_fraction(0.25))
        .with_die_cap(Celsius::new(59.0))
        .at(SimDuration::from_secs(60), ScenarioEvent::CrahCapacity(0.6))
        .at(
            SimDuration::from_secs(120),
            ScenarioEvent::Load(Utilization::FULL),
        )
        .at(
            SimDuration::from_secs(600),
            ScenarioEvent::Load(Utilization::saturating_from_fraction(0.25)),
        )
        .at(
            SimDuration::from_secs(1_200),
            ScenarioEvent::CrahCapacity(1.0),
        );
        let mut room = small_room(1);
        let mut ctl = FixedSupplyController::new(Celsius::new(18.0));
        let mut runner = ScenarioRunner::new(scenario);
        // Up to the fault clearing: the excursion has come and gone.
        runner.run_steps(&mut room, &mut ctl, 1_200).unwrap();
        let before_clear = runner.outcome(&room).stats;
        assert!(before_clear.cap_violation_time > SimDuration::ZERO);
        assert!(room.max_die_temperature() < Celsius::new(59.0));
        let outcome = runner.run(&mut room, &mut ctl).unwrap();
        assert!(!outcome.stayed_under_cap());
        let recovery = outcome.stats.recovery_time.expect("the excursion ended");
        // One contiguous excursion: onset to return spans exactly the
        // samples spent over the cap.
        assert_eq!(recovery, outcome.stats.cap_violation_time);
        assert_eq!(Some(recovery), before_clear.recovery_time);
    }

    #[test]
    fn bad_event_parameters_surface_as_room_errors() {
        let scenario = Scenario::new("bad", SimDuration::from_secs(10), SimDuration::from_secs(1))
            .at(SimDuration::ZERO, ScenarioEvent::CrahCapacity(2.0));
        let mut room = small_room(1);
        let mut ctl = FixedSupplyController::new(Celsius::new(18.0));
        let err = ScenarioRunner::new(scenario)
            .run(&mut room, &mut ctl)
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Room(RoomError::InvalidFault { .. })
        ));
    }

    #[test]
    fn mid_scenario_checkpoint_resumes_bit_identically() {
        let scenario = || {
            Scenario::new(
                "ckpt",
                SimDuration::from_secs(900),
                SimDuration::from_secs(1),
            )
            .at(
                SimDuration::from_secs(200),
                ScenarioEvent::CrahCapacity(0.5),
            )
            .at(
                SimDuration::from_secs(300),
                ScenarioEvent::FanFault {
                    rack: 1,
                    server: 0,
                    fault: FanFault::Degraded { flow_scale: 0.6 },
                },
            )
            .at(
                SimDuration::from_secs(600),
                ScenarioEvent::CrahCapacity(1.0),
            )
            .at(
                SimDuration::from_secs(600),
                ScenarioEvent::FanFault {
                    rack: 1,
                    server: 0,
                    fault: FanFault::None,
                },
            )
        };
        let fingerprint = |room: &Room, outcome: &ScenarioOutcome| {
            (
                outcome.total_energy.value().to_bits(),
                outcome.final_max_die.degrees().to_bits(),
                outcome.stats.cap_violation_time,
                outcome.stats.decisions,
                (0..room.racks())
                    .map(|r| room.cold_aisle_temperature(r).degrees().to_bits())
                    .collect::<Vec<u64>>(),
            )
        };

        // Uninterrupted reference (single-threaded).
        let mut room = small_room(1);
        let mut ctl = LutSetPointController::paper_default();
        let mut runner = ScenarioRunner::new(scenario());
        let reference = runner.run(&mut room, &mut ctl).unwrap();
        let reference = fingerprint(&room, &reference);

        // Interrupted mid-fault at step 450, restored into a *fresh*
        // room under a different thread plan and a fresh controller.
        let mut room = small_room(2);
        let mut ctl = LutSetPointController::paper_default();
        let mut runner = ScenarioRunner::new(scenario());
        runner.run_steps(&mut room, &mut ctl, 450).unwrap();
        let snap = runner.checkpoint(&mut room, &ctl);
        assert_eq!(snap.step(), 450);

        let mut resumed_room = small_room(4);
        let mut resumed_ctl = LutSetPointController::paper_default();
        let mut resumed_runner = ScenarioRunner::new(scenario());
        resumed_runner
            .restore(&mut resumed_room, &mut resumed_ctl, &snap)
            .unwrap();
        assert_eq!(resumed_runner.step(), 450);
        let outcome = resumed_runner
            .run(&mut resumed_room, &mut resumed_ctl)
            .unwrap();
        assert_eq!(fingerprint(&resumed_room, &outcome), reference);
    }
}
