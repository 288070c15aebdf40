//! The three workloads. Each puts the load on a different layer and is
//! driven one simulated step per call through a public entry point, so
//! the probe can time, classify and trace every step.

use leakctl::building::Building;
use leakctl::control::{ControlAction, RoomController};
use leakctl::room::{Room, RoomConfig};
use leakctl::scenario::{
    BuildingScenario, BuildingScenarioCheckpoint, BuildingScenarioRunner, Scenario, ScenarioEvent,
    ScenarioRunner,
};
use leakctl::schedule::{JobStream, LocalSearchScheduler, ScheduleStats, ScheduledLoop};
use leakctl::supervise::Supervisor;
use leakctl::CoreError;
use leakctl_bench::building::BuildingSpec;
use leakctl_bench::sched::SchedScenario;
use leakctl_bench::setpoint::SetPointScenario;
use leakctl_thermal::ShardPlan;
use leakctl_units::{Celsius, Joules, Rpm, SimDuration, Utilization};

use crate::stats::Fingerprint;
use crate::trace::{Probe, SharedRecorder, TimedController, TimedScheduler};

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

const DT: SimDuration = SimDuration::from_secs(1);

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 3072-server scheduled floor: the rack phase does the work.
    SchedFloor,
    /// 512 servers on 256 racks under MPC: air solve and previews.
    MpcWide,
    /// Four-room building surge with periodic checkpoints.
    BuildingSurge,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Self; 3] = [Self::SchedFloor, Self::MpcWide, Self::BuildingSurge];

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::SchedFloor => "sched-floor",
            Self::MpcWide => "mpc-wide",
            Self::BuildingSurge => "building-surge",
        }
    }

    /// Steps per measured block: a whole number of 160-step telemetry
    /// refill cycles and of 15 s decision periods (and, on the
    /// building, one whole surge script), so every run sees the same
    /// mix of step populations.
    #[must_use]
    pub fn block_steps(self) -> u64 {
        match self {
            Self::SchedFloor => 480,
            Self::MpcWide => MPC_WAVE,
            Self::BuildingSurge => SURGE_STEPS,
        }
    }

    /// Untimed settling steps before the measured phase; also whole
    /// cycles and periods, so the measured phase starts on a boundary.
    fn warmup_steps(self) -> u64 {
        match self {
            // Fills the floor to over half its steady ~60 % occupancy.
            Self::SchedFloor | Self::MpcWide => 480,
            Self::BuildingSurge => 960,
        }
    }

    /// Measured blocks for a run of `seconds`: the host time one block
    /// takes on a 2-vCPU x86-64 host sets the scale, and the block count
    /// is fixed by `seconds` alone, so a run's simulated trajectory
    /// never depends on how fast the host happened to be.
    #[must_use]
    pub fn blocks(self, seconds: u64) -> u64 {
        let (block_s, min_blocks) = match self {
            Self::SchedFloor => (5.5, 3),
            Self::MpcWide => (2.9, 2),
            Self::BuildingSurge => (3.5, 1),
        };
        ((seconds as f64 / block_s).round() as u64).max(min_blocks)
    }

    /// Builds the workload (the timed set-up) on a thread plan, with
    /// every trait object it hands to the simulator wrapped for timing.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn build(
        self,
        seed: u64,
        plan: usize,
        rec: &SharedRecorder,
    ) -> Result<Box<dyn Workload>, CoreError> {
        let plan = ShardPlan::new(plan);
        Ok(match self {
            Self::SchedFloor => Box::new(SchedFloor::build(seed, plan, rec)?),
            Self::MpcWide => Box::new(MpcWide::build(seed, plan, rec)?),
            Self::BuildingSurge => Box::new(BuildingSurge::build(seed, plan, rec)),
        })
    }
}

/// Layer counters over the measured phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Controller consultations.
    pub decisions: u64,
    /// Decisions that commanded a change.
    pub applied: u64,
    /// Jobs committed to a rack.
    pub placed: u64,
    /// Scheduler assignments rejected as infeasible.
    pub rejected: u64,
    /// Scheduler assignments returned.
    pub assignments: u64,
    /// Watchdog load sheds.
    pub sheds: u64,
    /// Rooms escalated into safe mode.
    pub escalations: u64,
    /// NaN or energy-conservation monitor trips.
    pub invariant_trips: u64,
}

/// A built workload: settle untimed, then measure block by block.
pub trait Workload {
    /// Servers stepped per simulated step.
    fn servers(&self) -> usize;

    /// Untimed settling before the measured phase.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    fn warm_up(&mut self) -> Result<(), CoreError>;

    /// Runs `blocks` measured blocks, one step per probe call.
    ///
    /// # Errors
    ///
    /// Propagates failures outside a step (a rewind restore).
    fn measure(&mut self, blocks: u64, probe: &mut Probe) -> Result<(), CoreError>;

    /// The simulated result of the measured phase.
    fn fingerprint(&self) -> Fingerprint;

    /// IT energy of the measured phase (the first replay on the
    /// building), kWh, integrated by the benchmark itself from the IT
    /// power read after every step. It uses none of the simulator's
    /// energy accumulators, so it checks the fingerprint's `it_kwh`
    /// for any seed.
    fn observed_it_kwh(&self) -> f64;

    /// Layer counters over the measured phase.
    fn counters(&self) -> Counters;

    /// Internal consistency failures seen while measuring.
    fn problems(&self) -> Vec<String> {
        Vec::new()
    }
}

fn kwh(j: Joules) -> f64 {
    j.as_kwh().value()
}

/// A load level in `[lo, lo + span)` drawn from the seed (splitmix64).
/// The room seed only reaches sensor noise, which these controllers do
/// not read, so this is what makes each seed a different input.
fn seeded_load(seed: u64, lo: f64, span: f64) -> Utilization {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
    Utilization::saturating_from_fraction(lo + span * u)
}

// ---------------------------------------------------------------------------
// sched-floor
// ---------------------------------------------------------------------------

struct SchedFloor {
    room: Room,
    the_loop: ScheduledLoop,
    scheduler: TimedScheduler,
    controller: TimedController,
    base: ScheduleStats,
    it_seen: Joules,
    servers: usize,
}

impl SchedFloor {
    fn build(seed: u64, plan: ShardPlan, rec: &SharedRecorder) -> Result<Self, CoreError> {
        let mut s = SchedScenario::full();
        s.seed = seed;
        let mut config = RoomConfig::new(s.rows, s.racks_per_row, s.servers_per_rack);
        config.recirculation_fraction = s.recirculation;
        config.die_limit = Celsius::new(s.die_limit);
        config.seed = s.seed;
        let mut room = Room::with_plan(config, plan)?;
        room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(s.fan_floor)))?;
        let controller = TimedController::new(Box::new(s.lut_controller()), rec.clone());
        let scheduler = TimedScheduler::new(
            Box::new(LocalSearchScheduler::new(s.greedy_config())),
            rec.clone(),
        );
        let the_loop = ScheduledLoop::new(JobStream::generate(s.stream_config())?);
        Ok(Self {
            room,
            base: *the_loop.stats(),
            the_loop,
            scheduler,
            controller,
            it_seen: Joules::ZERO,
            servers: s.servers(),
        })
    }

    fn run(&mut self, steps: u64) -> Result<ScheduleStats, CoreError> {
        self.the_loop.run(
            &mut self.room,
            &mut self.scheduler,
            &mut self.controller,
            DT,
            steps,
        )
    }
}

impl Workload for SchedFloor {
    fn servers(&self) -> usize {
        self.servers
    }

    fn warm_up(&mut self) -> Result<(), CoreError> {
        self.run(Kind::SchedFloor.warmup_steps())?;
        self.room.reset_accounting();
        self.the_loop.reset_peaks();
        self.base = *self.the_loop.stats();
        Ok(())
    }

    fn measure(&mut self, blocks: u64, probe: &mut Probe) -> Result<(), CoreError> {
        let steps = blocks * Kind::SchedFloor.block_steps();
        for _ in 0..steps {
            let end = self.the_loop.now() + DT;
            probe.step(end, || self.run(1).map(drop));
            self.it_seen += self.room.total_power() * DT;
        }
        probe.mark_rss((DT * steps).as_secs_f64());
        Ok(())
    }

    fn fingerprint(&self) -> Fingerprint {
        let st = self.the_loop.stats();
        Fingerprint {
            total_kwh: kwh(self.room.total_energy()),
            it_kwh: kwh(self.room.it_energy()),
            cooling_kwh: kwh(self.room.cooling_energy()),
            peak_die_c: st.peak_die.degrees(),
            counts: vec![
                ("placed".into(), st.placed - self.base.placed),
                ("completed".into(), st.completed - self.base.completed),
            ],
        }
    }

    fn observed_it_kwh(&self) -> f64 {
        kwh(self.it_seen)
    }

    fn counters(&self) -> Counters {
        let (st, b) = (self.the_loop.stats(), &self.base);
        Counters {
            decisions: st.ctrl_decisions - b.ctrl_decisions,
            applied: st.ctrl_applied - b.ctrl_applied,
            placed: st.placed - b.placed,
            rejected: st.rejected - b.rejected,
            assignments: st.sched_assignments - b.sched_assignments,
            ..Counters::default()
        }
    }
}

// ---------------------------------------------------------------------------
// mpc-wide
// ---------------------------------------------------------------------------

/// Square-wave period, steps: a third at full load, the rest at a
/// seeded low load.
const MPC_WAVE: u64 = 960;

struct MpcWide {
    room: Room,
    controller: TimedController,
    low: Utilization,
    runner: Option<ScenarioRunner>,
    clock: u64,
    it_seen: Joules,
    servers: usize,
}

/// The load script: the square wave from the start of a phase of
/// `steps` steps, driven by scripted load events.
fn wave(name: &str, steps: u64, low: Utilization) -> Scenario {
    let mut script = Scenario::new(name, DT * steps, DT).with_initial_load(Utilization::FULL);
    for start in (0..steps).step_by(MPC_WAVE as usize) {
        if start > 0 {
            script = script.at(DT * start, ScenarioEvent::Load(Utilization::FULL));
        }
        script = script.at(DT * (start + MPC_WAVE / 3), ScenarioEvent::Load(low));
    }
    script
}

impl MpcWide {
    fn build(seed: u64, plan: ShardPlan, rec: &SharedRecorder) -> Result<Self, CoreError> {
        let mut s = SetPointScenario::full();
        s.rows = 16;
        s.racks_per_row = 16;
        s.servers_per_rack = 2;
        s.seed = seed;
        let mut config = RoomConfig::new(s.rows, s.racks_per_row, s.servers_per_rack);
        config.recirculation_fraction = 0.15;
        config.seed = s.seed;
        let mut room = Room::with_plan(config, plan)?;
        room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(s.fan_floor)))?;
        Ok(Self {
            room,
            controller: TimedController::new(Box::new(s.mpc_controller()), rec.clone()),
            low: seeded_load(seed, 0.2, 0.15),
            runner: None,
            clock: 0,
            it_seen: Joules::ZERO,
            servers: s.servers(),
        })
    }
}

impl Workload for MpcWide {
    fn servers(&self) -> usize {
        self.servers
    }

    fn warm_up(&mut self) -> Result<(), CoreError> {
        let steps = Kind::MpcWide.warmup_steps();
        ScenarioRunner::new(wave("warm-up", steps, self.low))
            .run(&mut self.room, &mut self.controller)?;
        self.room.reset_accounting();
        self.clock = steps;
        Ok(())
    }

    fn measure(&mut self, blocks: u64, probe: &mut Probe) -> Result<(), CoreError> {
        let steps = blocks * MPC_WAVE;
        let runner = self.runner.insert(ScenarioRunner::new(wave(
            Kind::MpcWide.name(),
            steps,
            self.low,
        )));
        for _ in 0..steps {
            self.clock += 1;
            let (room, controller) = (&mut self.room, &mut self.controller);
            probe.step(DT * self.clock, || runner.run_steps(room, controller, 1));
            self.it_seen += self.room.total_power() * DT;
        }
        probe.mark_rss((DT * steps).as_secs_f64());
        Ok(())
    }

    fn fingerprint(&self) -> Fingerprint {
        let Some(runner) = &self.runner else {
            return Fingerprint::empty();
        };
        let o = runner.outcome(&self.room);
        Fingerprint {
            total_kwh: kwh(o.total_energy),
            it_kwh: kwh(o.it_energy),
            cooling_kwh: kwh(o.cooling_energy),
            peak_die_c: o.stats.peak_die.degrees(),
            counts: vec![
                ("decisions".into(), o.stats.decisions),
                ("applied".into(), o.stats.applied),
            ],
        }
    }

    fn observed_it_kwh(&self) -> f64 {
        kwh(self.it_seen)
    }

    fn counters(&self) -> Counters {
        let Some(runner) = &self.runner else {
            return Counters::default();
        };
        let o = runner.outcome(&self.room);
        Counters {
            decisions: o.stats.decisions,
            applied: o.stats.applied,
            ..Counters::default()
        }
    }
}

// ---------------------------------------------------------------------------
// building-surge
// ---------------------------------------------------------------------------

/// Steps of the correlated-surge script (2400 simulated s).
const SURGE_STEPS: u64 = 2_400;
/// Simulated seconds between whole-run checkpoints.
const CHECKPOINT_EVERY: u64 = 600;

struct BuildingSurge {
    building: Building,
    controllers: Vec<Box<dyn RoomController>>,
    supervisor: Supervisor,
    script: BuildingScenario,
    runner: BuildingScenarioRunner,
    /// Snapshot at the start of the script: every block after the first
    /// rewinds to it, so each block replays the identical surge.
    rewind: Option<BuildingScenarioCheckpoint>,
    /// Fingerprint and counters of each replay.
    replays: Vec<(Fingerprint, Counters)>,
    /// IT power integrated over the first replay.
    it_seen: Joules,
    servers: usize,
}

impl BuildingSurge {
    fn build(seed: u64, plan: ShardPlan, rec: &SharedRecorder) -> Self {
        let mut spec = BuildingSpec::full();
        spec.base.rows = 1;
        spec.base.racks_per_row = 4;
        spec.base.servers_per_rack = 32;
        spec.base.seed = seed;
        let plant = spec.plant_spec();
        let building = spec.fresh_building(plant, plan);
        let lut = spec.base.lut_controller();
        let controllers = (0..spec.rooms)
            .map(|_| {
                Box::new(TimedController::new(Box::new(lut.clone()), rec.clone()))
                    as Box<dyn RoomController>
            })
            .collect();
        let script = spec
            .cases()
            .into_iter()
            .find(|c| c.name() == "correlated-surge")
            .expect("the building sweep scripts a correlated surge")
            .with_initial_load(seeded_load(seed, 0.2, 0.1));
        Self {
            building,
            controllers,
            supervisor: spec.supervisor(),
            runner: BuildingScenarioRunner::new(script.clone(), spec.rooms),
            script,
            rewind: None,
            replays: Vec::new(),
            it_seen: Joules::ZERO,
            servers: spec.servers(),
        }
    }

    fn replay_result(&self) -> (Fingerprint, Counters) {
        let o = self.runner.outcome(&self.building, &self.supervisor);
        let fingerprint = Fingerprint {
            total_kwh: kwh(o.total_energy),
            it_kwh: kwh(o.it_energy),
            cooling_kwh: kwh(o.plant_energy),
            peak_die_c: o.stats.peak_die.degrees(),
            counts: vec![
                ("decisions".into(), o.stats.decisions),
                ("sheds".into(), o.sheds),
            ],
        };
        let counters = Counters {
            decisions: o.stats.decisions,
            applied: o.stats.applied,
            sheds: o.sheds,
            escalations: o.escalations,
            invariant_trips: o.trips.invariant(),
            ..Counters::default()
        };
        (fingerprint, counters)
    }
}

impl Workload for BuildingSurge {
    fn servers(&self) -> usize {
        self.servers
    }

    fn warm_up(&mut self) -> Result<(), CoreError> {
        let rooms = self.controllers.len();
        let warm = BuildingScenario::new("warm-up", DT * Kind::BuildingSurge.warmup_steps(), DT)
            .with_die_cap(self.script.die_cap())
            .with_initial_load(self.script.initial_load());
        BuildingScenarioRunner::new(warm, rooms).run(
            &mut self.building,
            &mut self.controllers,
            &mut self.supervisor,
        )?;
        self.building.reset_accounting();
        self.supervisor.reset();
        self.runner = BuildingScenarioRunner::new(self.script.clone(), rooms);
        self.rewind = Some(self.runner.checkpoint(
            &mut self.building,
            &self.controllers,
            &self.supervisor,
        ));
        Ok(())
    }

    fn measure(&mut self, blocks: u64, probe: &mut Probe) -> Result<(), CoreError> {
        let warm = Kind::BuildingSurge.warmup_steps();
        for block in 0..blocks {
            if block > 0 {
                if let Some(rewind) = &self.rewind {
                    self.runner.restore(
                        &mut self.building,
                        &mut self.controllers,
                        &mut self.supervisor,
                        rewind,
                    )?;
                }
            }
            // Keep only the newest checkpoint, as a resumable run would:
            // each timed checkpoint also drops the one it replaces.
            let mut latest = None;
            for step in 1..=SURGE_STEPS {
                let (runner, building, controllers, supervisor) = (
                    &mut self.runner,
                    &mut self.building,
                    &mut self.controllers,
                    &mut self.supervisor,
                );
                probe.step(DT * (warm + step), || {
                    runner.run_steps(building, controllers, supervisor, 1)
                });
                if block == 0 {
                    self.it_seen += building.total_power() * DT;
                }
                if step % CHECKPOINT_EVERY == 0 {
                    probe.checkpoint(step, || {
                        latest = Some(runner.checkpoint(building, controllers, supervisor));
                    });
                }
            }
            if block == 0 {
                probe.mark_rss((DT * SURGE_STEPS).as_secs_f64());
            }
            self.replays.push(self.replay_result());
        }
        Ok(())
    }

    fn fingerprint(&self) -> Fingerprint {
        self.replays
            .first()
            .map_or_else(Fingerprint::empty, |(f, _)| f.clone())
    }

    fn observed_it_kwh(&self) -> f64 {
        kwh(self.it_seen)
    }

    fn counters(&self) -> Counters {
        self.replays
            .iter()
            .fold(Counters::default(), |acc, (_, c)| Counters {
                decisions: acc.decisions + c.decisions,
                applied: acc.applied + c.applied,
                sheds: acc.sheds + c.sheds,
                escalations: acc.escalations + c.escalations,
                invariant_trips: acc.invariant_trips + c.invariant_trips,
                ..acc
            })
    }

    fn problems(&self) -> Vec<String> {
        let Some((first, _)) = self.replays.first() else {
            return Vec::new();
        };
        self.replays
            .iter()
            .enumerate()
            .skip(1)
            .flat_map(|(i, (f, _))| {
                first
                    .diff(f, 0.0)
                    .into_iter()
                    .map(move |d| format!("replay {i} after rewind differs: {d}"))
            })
            .collect()
    }
}
