//! The one monitor → decide → actuate loop behind every closed-loop run.
//!
//! [`Room::run_controlled`], [`ScenarioRunner`](crate::scenario::ScenarioRunner),
//! [`BuildingScenarioRunner`](crate::scenario::BuildingScenarioRunner)
//! and [`ScheduledLoop`](crate::schedule::ScheduledLoop) are thin
//! wrappers over [`Drive::run`]. Each step runs these stages, in order,
//! in the serial section between physics steps:
//!
//! 1. events due at the start of the step: scripted events, or job
//!    retirement and admission;
//! 2. the scheduler, on its own cadence;
//! 3. the placement refresh;
//! 4. control, room by room in index order, each on its controller's
//!    cadence;
//! 5. supervision on the supervisor's cadence — after control, so
//!    watchdog actions win;
//! 6. the physics step;
//! 7. the judge: peak die, time over the cap, excursion recovery.
//!
//! A run shape supplies the stages it has through [`Stages`]. Every
//! decision happens in the serial section, so driven runs are
//! bit-identical for any thread plan.

use std::ops::DerefMut;

use leakctl_units::{Celsius, SimDuration, Utilization};

use crate::building::Building;
use crate::control::{ControlAction, RoomController, RoomObservation};
use crate::error::{BuildingError, CoreError};
use crate::room::{ControlStats, Room};

/// Due on the first step, then once every period: the clock of each
/// controller, scheduler and supervisor. It rides checkpoints, so a
/// resumed run keeps its phase.
#[derive(Debug, Clone, Copy, Default)]
struct Cadence {
    /// Run time of the last decision (`None` before the first).
    last: Option<SimDuration>,
}

impl Cadence {
    /// Whether a decision is due at run time `now` (restarting the
    /// period when it is).
    fn due(&mut self, now: SimDuration, period: SimDuration) -> bool {
        let due = self.last.is_none_or(|last| now - last >= period);
        if due {
            self.last = Some(now);
        }
        due
    }
}

/// Judges the hottest die after every step against a cap: peak and time
/// over the cap go into the run's [`ControlStats`], and it tracks the
/// last excursion for the recovery time. An infinite cap judges the
/// peak only.
#[derive(Debug, Clone, Copy)]
struct Judge {
    cap: Celsius,
    /// Sample time of the first over-cap sample of the last excursion.
    onset: Option<SimDuration>,
    /// Sample time of the first under-cap sample after it (`None`
    /// while the excursion lasts).
    recovered_at: Option<SimDuration>,
}

impl Judge {
    /// Judges `die`, sampled at `at` after a step of `dt`. An over-cap
    /// sample after a recovery starts a new excursion.
    fn judge(&mut self, stats: &mut ControlStats, die: Celsius, dt: SimDuration, at: SimDuration) {
        stats.peak_die = stats.peak_die.max(die);
        if die > self.cap {
            stats.cap_violation_time += dt;
            if self.onset.is_none() || self.recovered_at.is_some() {
                self.onset = Some(at);
            }
            self.recovered_at = None;
        } else if self.onset.is_some() && self.recovered_at.is_none() {
            self.recovered_at = Some(at);
        }
    }

    fn recovery_time(&self) -> Option<SimDuration> {
        Some(self.recovered_at? - self.onset?)
    }
}

/// A deterministic script: timed events over a fixed duration and step
/// size, judged against a thermal cap, starting from one activity
/// level. [`Scenario`](crate::scenario::Scenario) scripts a room and
/// [`BuildingScenario`](crate::scenario::BuildingScenario) a building.
///
/// Events fire at the *start* of the step whose time they name (so an
/// event at a decision instant is visible to that very decision), in
/// time order; ties fire in insertion order.
#[derive(Debug, Clone)]
pub struct Script<E> {
    name: String,
    events: Vec<(SimDuration, E)>,
    duration: SimDuration,
    dt: SimDuration,
    die_cap: Celsius,
    initial_load: Utilization,
}

impl<E> Script<E> {
    /// A script of `duration` in steps of `dt` with no events yet, an
    /// 85 °C cap and full initial load (in every room of a building).
    ///
    /// # Panics
    ///
    /// Panics on a zero `dt`.
    #[must_use]
    pub fn new(name: impl Into<String>, duration: SimDuration, dt: SimDuration) -> Self {
        assert!(!dt.is_zero(), "scenarios need a positive step");
        Self {
            name: name.into(),
            events: Vec::new(),
            duration,
            dt,
            die_cap: Celsius::new(85.0),
            initial_load: Utilization::FULL,
        }
    }

    /// Schedules `event` at simulated time `at` (from the start of the
    /// run).
    #[must_use]
    pub fn at(mut self, at: SimDuration, event: E) -> Self {
        self.events.push((at, event));
        // Stable sort: same-time events keep their insertion order.
        self.events.sort_by_key(|&(t, _)| t);
        self
    }

    /// Overrides the thermal cap the run is judged against (default
    /// 85 °C, the paper's red-line die temperature).
    #[must_use]
    pub fn with_die_cap(mut self, cap: Celsius) -> Self {
        self.die_cap = cap;
        self
    }

    /// Overrides the activity level the run starts at (default full).
    #[must_use]
    pub fn with_initial_load(mut self, load: Utilization) -> Self {
        self.initial_load = load;
        self
    }

    /// The script's name (used in sweep reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total steps the script runs for.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.duration.as_millis() / self.dt.as_millis()
    }

    /// The step size.
    #[must_use]
    pub fn dt(&self) -> SimDuration {
        self.dt
    }

    /// The thermal cap the run is judged against.
    #[must_use]
    pub fn die_cap(&self) -> Celsius {
        self.die_cap
    }

    /// The activity level the run starts at (until a load event moves
    /// it).
    #[must_use]
    pub fn initial_load(&self) -> Utilization {
        self.initial_load
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn events(&self) -> usize {
        self.events.len()
    }

    /// Applies, in script order, every event from index `next` on that
    /// is due by `now`, advancing `next` past each one applied.
    pub(crate) fn fire(
        &self,
        next: &mut usize,
        now: SimDuration,
        mut apply: impl FnMut(&E) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        while let Some((_, event)) = self.events.get(*next).filter(|(at, _)| *at <= now) {
            apply(event)?;
            *next += 1;
        }
        Ok(())
    }
}

/// What the loop drives: one room, or a building of rooms behind one
/// plant, each room with its own controller.
pub(crate) trait Site {
    fn rooms(&self) -> usize;
    fn room_mut(&mut self, room: usize) -> Result<&mut Room, CoreError>;
    fn apply(&mut self, room: usize, action: &ControlAction) -> Result<(), CoreError>;
    fn max_die_temperature(&self) -> Celsius;
}

impl Site for Room {
    fn rooms(&self) -> usize {
        1
    }

    fn room_mut(&mut self, _room: usize) -> Result<&mut Room, CoreError> {
        Ok(self)
    }

    fn apply(&mut self, _room: usize, action: &ControlAction) -> Result<(), CoreError> {
        Room::apply(self, action)
    }

    fn max_die_temperature(&self) -> Celsius {
        Room::max_die_temperature(self)
    }
}

impl Site for Building {
    fn rooms(&self) -> usize {
        Building::rooms(self)
    }

    fn room_mut(&mut self, room: usize) -> Result<&mut Room, CoreError> {
        Ok(Building::room_mut(self, room)?)
    }

    fn apply(&mut self, room: usize, action: &ControlAction) -> Result<(), CoreError> {
        Building::apply(self, room, action)
    }

    fn max_die_temperature(&self) -> Celsius {
        Building::max_die_temperature(self)
    }
}

/// The stages a run shape adds around control, in the order of the
/// module docs; all but the physics step default to nothing.
pub(crate) trait Stages<S> {
    /// Applies what is due at `now`, the start of the step: scripted
    /// events, or job retirement and admission.
    fn events(&mut self, _site: &mut S, _now: SimDuration) -> Result<(), CoreError> {
        Ok(())
    }

    /// `None`: no scheduler.
    fn schedule_period(&self) -> Option<SimDuration> {
        None
    }

    fn schedule(
        &mut self,
        _site: &mut S,
        _now: SimDuration,
        _obs: &mut RoomObservation,
    ) -> Result<(), CoreError> {
        Ok(())
    }

    fn place(&mut self, _site: &mut S) -> Result<(), CoreError> {
        Ok(())
    }

    /// `None`: unsupervised.
    fn supervise_period(&self) -> Option<SimDuration> {
        None
    }

    fn supervise(&mut self, _site: &mut S) -> Result<(), CoreError> {
        Ok(())
    }

    /// Advances the site by `dt`; `step` is this step's index.
    fn step(&mut self, site: &mut S, dt: SimDuration, step: u64) -> Result<(), CoreError>;
}

/// A run's progress outside the site and its actors; scenario
/// checkpoints clone it verbatim.
#[derive(Debug, Clone)]
pub(crate) struct Drive {
    step: u64,
    now: SimDuration,
    /// One per room.
    control: Vec<Cadence>,
    schedule: Cadence,
    supervise: Cadence,
    stats: ControlStats,
    judge: Judge,
}

impl Drive {
    /// A fresh run over `rooms` rooms, judged against `cap`.
    pub(crate) fn new(rooms: usize, cap: Celsius) -> Self {
        Self {
            step: 0,
            now: SimDuration::ZERO,
            control: vec![Cadence::default(); rooms],
            schedule: Cadence::default(),
            supervise: Cadence::default(),
            stats: ControlStats::default(),
            judge: Judge {
                cap,
                onset: None,
                recovered_at: None,
            },
        }
    }

    pub(crate) fn step(&self) -> u64 {
        self.step
    }

    pub(crate) fn now(&self) -> SimDuration {
        self.now
    }

    /// The control counters and the judge's verdict so far; recovery
    /// runs from the onset of the last excursion to its sustained
    /// return under the cap.
    pub(crate) fn stats(&self) -> ControlStats {
        ControlStats {
            recovery_time: self.judge.recovery_time(),
            ..self.stats
        }
    }

    pub(crate) fn reset_peak(&mut self) {
        self.stats.peak_die = Celsius::new(f64::NEG_INFINITY);
    }

    /// Drives `site` for `steps` steps of `dt` with one controller per
    /// room. Fails on a room-count mismatch or a zero `dt`.
    pub(crate) fn run<'c, S, C>(
        &mut self,
        site: &mut S,
        controllers: &mut [C],
        stages: &mut impl Stages<S>,
        obs: &mut RoomObservation,
        dt: SimDuration,
        steps: u64,
    ) -> Result<(), CoreError>
    where
        S: Site,
        C: DerefMut<Target = dyn RoomController + 'c>,
    {
        if site.rooms() != self.control.len() || controllers.len() != self.control.len() {
            return Err(BuildingError::InvalidFault {
                what:
                    "one controller per room required (runner/building/controller count mismatch)",
            }
            .into());
        }
        if dt.is_zero() {
            return Err(CoreError::Invalid {
                what: "driven runs need a positive step".to_owned(),
            });
        }
        for _ in 0..steps {
            let now = self.now;
            stages.events(site, now)?;
            if let Some(period) = stages.schedule_period() {
                if self.schedule.due(now, period) {
                    stages.schedule(site, now, obs)?;
                }
            }
            stages.place(site)?;
            for (room, (controller, cadence)) in
                controllers.iter_mut().zip(&mut self.control).enumerate()
            {
                if cadence.due(now, controller.decision_period()) {
                    let action = site.room_mut(room)?.decide(&mut **controller, obs);
                    self.stats.decisions += 1;
                    if !action.is_hold() {
                        self.stats.applied += 1;
                        site.apply(room, &action)?;
                    }
                }
            }
            if let Some(period) = stages.supervise_period() {
                if self.supervise.due(now, period) {
                    stages.supervise(site)?;
                }
            }
            stages.step(site, dt, self.step)?;
            self.step += 1;
            self.now += dt;
            let die = site.max_die_temperature();
            self.judge.judge(&mut self.stats, die, dt, self.now);
        }
        Ok(())
    }
}
