//! Building-scale resilience sweep: the harness behind the
//! `repro-building` acceptance gate.
//!
//! A four-room [`Building`] fed by one finite
//! [`ChilledWaterLoop`](leakctl_thermal::ChilledWaterLoop)
//! rides three building-scale fault scripts — a chiller derate/outage,
//! a heat wave that locks out the economizer while a chilled-water
//! excursion raises the supply floor, and a correlated all-room load
//! surge on a derated plant — under per-room LUT and MPC set-point
//! controllers with a [`Supervisor`] watchdog on top. The gate requires
//! both supervised controllers to **contain** every script: the hottest
//! die across the building may cross the cap only within the transient
//! budget, must end the run back under it, and no invariant monitor
//! (NaN, energy conservation) may trip.
//!
//! The sweep also pins the building-scale robustness substrate: a
//! mid-fault [`BuildingScenarioRunner::checkpoint`] restored into fresh
//! buildings built on thread plans {1, 2, 8} must finish
//! **bit-identically** to the uninterrupted plan-1 run. The
//! `repro-building` binary renders everything into `BENCH_perf.json`
//! and exits nonzero unless both properties hold.

use std::time::Instant;

use leakctl::building::{Building, BuildingConfig};
use leakctl::control::{ControlAction, RoomController};
use leakctl::room::RoomConfig;
use leakctl::scenario::{BuildingEvent, BuildingOutcome, BuildingScenario, BuildingScenarioRunner};
use leakctl::supervise::{Supervisor, SupervisorConfig};
use leakctl_thermal::{ChilledWaterSpec, ShardPlan};
use leakctl_units::{Celsius, Rpm, SimDuration, Utilization, Watts};

use crate::perf::PerfResult;
use crate::setpoint::SetPointScenario;

/// Configuration of one building-resilience sweep: the per-room floor
/// geometry and controller recipes (borrowed from [`SetPointScenario`]
/// so the building runs the exact controllers the room-scale figures
/// evaluate), plus the plant sizing and supervision knobs.
#[derive(Debug, Clone)]
pub struct BuildingSpec {
    /// Per-room geometry, cap, fan floor and the LUT/MPC recipes.
    pub base: SetPointScenario,
    /// Rooms sharing the chilled-water plant.
    pub rooms: usize,
    /// Hot-aisle recirculation fraction in every room.
    pub beta: f64,
    /// Plant capacity as a multiple of the building's *measured*
    /// full-load IT demand — >1 so a healthy plant serves full load,
    /// close enough to 1 that faults genuinely oversubscribe it.
    pub capacity_margin: f64,
    /// CRAH air-side approach over the chilled-water supply (°C).
    pub air_approach: f64,
    /// Settling steps under the controllers before each measured
    /// script.
    pub warmup_steps: u64,
    /// Longest cap excursion a supervised controller may ride per
    /// script and still count as containing the fault.
    pub transient_budget: SimDuration,
}

impl BuildingSpec {
    /// The acceptance configuration: four 32-server rooms (1 × 2 × 16)
    /// on one plant sized 1.15× the building's full-load demand.
    #[must_use]
    pub fn full() -> Self {
        let mut base = SetPointScenario::full();
        base.rows = 1;
        base.racks_per_row = 2;
        base.servers_per_rack = 16;
        Self {
            base,
            rooms: 4,
            beta: 0.15,
            capacity_margin: 1.15,
            air_approach: 5.0,
            warmup_steps: 600,
            transient_budget: SimDuration::from_secs(300),
        }
    }

    /// A reduced smoke configuration: four 4-server rooms, the same
    /// scripts and gates over much slower small-room dynamics.
    #[must_use]
    pub fn quick() -> Self {
        let mut base = SetPointScenario::quick();
        base.rows = 1;
        base.racks_per_row = 2;
        base.servers_per_rack = 2;
        Self {
            base,
            rooms: 4,
            beta: 0.2,
            capacity_margin: 1.15,
            air_approach: 5.0,
            warmup_steps: 300,
            transient_budget: SimDuration::from_secs(300),
        }
    }

    /// Total server count across the building.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.rooms * self.base.servers()
    }

    fn room_config(&self) -> RoomConfig {
        let mut config = RoomConfig::new(
            self.base.rows,
            self.base.racks_per_row,
            self.base.servers_per_rack,
        );
        config.recirculation_fraction = self.beta;
        config.seed = self.base.seed;
        config
    }

    /// Sizes the plant against the building's *measured* full-load
    /// demand: one room is settled at full load and its steady IT power
    /// scaled by the room count and the capacity margin. Deterministic,
    /// so every run (and every thread plan) sees the identical spec.
    /// The probe room runs single-sharded, as every room of a
    /// [`Building`] does: it spawns no workers, so a single-threaded
    /// caller stays single-threaded.
    #[must_use]
    pub fn plant_spec(&self) -> ChilledWaterSpec {
        let mut room = leakctl::room::Room::with_plan(self.room_config(), ShardPlan::new(1))
            .expect("probe room builds");
        room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(self.base.fan_floor)))
            .expect("fan floor applies");
        for _ in 0..self.warmup_steps {
            room.step(self.base.dt, Utilization::FULL)
                .expect("probe room steps");
        }
        let demand = room.total_power().value() * self.rooms as f64;
        ChilledWaterSpec {
            capacity: Watts::new(demand * self.capacity_margin),
            ..ChilledWaterSpec::default()
        }
    }

    /// A fresh building on `plan` with the scenario fan floor applied
    /// in every room.
    #[must_use]
    pub fn fresh_building(&self, plant: ChilledWaterSpec, plan: ShardPlan) -> Building {
        let mut config = BuildingConfig::uniform(self.rooms, &self.room_config(), plant);
        config.air_approach = self.air_approach;
        let mut building = Building::with_plan(&config, plan).expect("building builds");
        for room in 0..self.rooms {
            building
                .apply(
                    room,
                    &ControlAction::hold().with_fan_floor(Rpm::new(self.base.fan_floor)),
                )
                .expect("fan floor applies");
        }
        building
    }

    /// One supervised controller set: a clone of `prototype` per room.
    fn controller_fleet(
        &self,
        prototype: &dyn Fn() -> Box<dyn RoomController>,
    ) -> Vec<Box<dyn RoomController>> {
        (0..self.rooms).map(|_| prototype()).collect()
    }

    /// A supervisor tuned to the scenario cap.
    #[must_use]
    pub fn supervisor(&self) -> Supervisor {
        Supervisor::new(
            self.rooms,
            SupervisorConfig::for_cap(Celsius::new(self.base.die_limit)),
        )
    }

    /// The three scripted cases the gate runs, all judged against the
    /// scenario cap:
    ///
    /// 1. `chiller-failure`: the mechanical chiller derates to 45 % at
    ///    t = 300 s under a 65 % building load and is repaired twenty
    ///    minutes later — the plant oversubscribes, the watchdog sheds,
    ///    the rooms ride a deep CRAH derate.
    /// 2. `heat-wave`: a cool morning (economizer active) heats to
    ///    38 °C — economizer lockout, condenser-lift COP and capacity
    ///    derates — while a chilled-water excursion lifts every room's
    ///    supply floor; the wave breaks at t = 1600 s.
    /// 3. `correlated-surge`: every room surges from 25 % to full load
    ///    on a plant already derated to 75 % — the correlated spike the
    ///    per-room controllers cannot see coming and the watchdog must
    ///    absorb.
    #[must_use]
    pub fn cases(&self) -> Vec<BuildingScenario> {
        let dt = self.base.dt;
        let dur = SimDuration::from_secs(2_400);
        let cap = Celsius::new(self.base.die_limit);
        let load = |f: f64| Utilization::saturating_from_fraction(f);

        let chiller = BuildingScenario::new("chiller-failure", dur, dt)
            .with_die_cap(cap)
            .with_initial_load(load(0.65))
            .at(SimDuration::from_secs(300), BuildingEvent::Chiller(0.45))
            .at(SimDuration::from_secs(1_500), BuildingEvent::Chiller(1.0));

        let heat_wave = BuildingScenario::new("heat-wave", dur, dt)
            .with_die_cap(cap)
            .with_initial_load(load(0.6))
            .at(SimDuration::ZERO, BuildingEvent::Outdoor(Celsius::new(8.0)))
            .at(
                SimDuration::from_secs(400),
                BuildingEvent::Outdoor(Celsius::new(24.0)),
            )
            .at(
                SimDuration::from_secs(700),
                BuildingEvent::Outdoor(Celsius::new(38.0)),
            )
            .at(
                SimDuration::from_secs(700),
                BuildingEvent::ChwExcursion(6.0),
            )
            .at(
                SimDuration::from_secs(1_600),
                BuildingEvent::Outdoor(Celsius::new(20.0)),
            )
            .at(
                SimDuration::from_secs(1_600),
                BuildingEvent::ChwExcursion(0.0),
            );

        let surge = BuildingScenario::new("correlated-surge", dur, dt)
            .with_die_cap(cap)
            .with_initial_load(load(0.25))
            .at(SimDuration::from_secs(250), BuildingEvent::Chiller(0.75))
            .at(
                SimDuration::from_secs(300),
                BuildingEvent::LoadSurge(Utilization::FULL),
            )
            .at(SimDuration::from_secs(1_400), BuildingEvent::Chiller(1.0))
            .at(
                SimDuration::from_secs(1_800),
                BuildingEvent::LoadSurge(load(0.4)),
            );

        vec![chiller, heat_wave, surge]
    }

    /// Settles a fresh building at the script's initial load *under the
    /// controllers and supervisor* (so all reach their joint operating
    /// point), resets accounting and supervision counters, then drives
    /// the script through a [`BuildingScenarioRunner`].
    fn run_script(
        &self,
        plant: ChilledWaterSpec,
        script: &BuildingScenario,
        controllers: &mut [Box<dyn RoomController>],
        supervisor: &mut Supervisor,
    ) -> BuildingOutcome {
        let mut building = self.fresh_building(plant, ShardPlan::new(1));
        for controller in controllers.iter_mut() {
            controller.reset();
        }
        supervisor.reset();
        let warmup =
            BuildingScenario::new("warmup", self.base.dt * self.warmup_steps, self.base.dt)
                .with_die_cap(script.die_cap())
                .with_initial_load(script.initial_load());
        BuildingScenarioRunner::new(warmup, self.rooms)
            .run(&mut building, controllers, supervisor)
            .expect("warmup runs");
        building.reset_accounting();
        supervisor.reset();
        BuildingScenarioRunner::new(script.clone(), self.rooms)
            .run(&mut building, controllers, supervisor)
            .expect("scripted run succeeds")
    }

    /// Runs one supervised controller recipe through one case.
    fn run_one(
        &self,
        plant: ChilledWaterSpec,
        script: &BuildingScenario,
        prototype: &dyn Fn() -> Box<dyn RoomController>,
        name: &str,
    ) -> BuildingRun {
        let mut controllers = self.controller_fleet(prototype);
        let mut supervisor = self.supervisor();
        let start = Instant::now();
        let outcome = self.run_script(plant, script, &mut controllers, &mut supervisor);
        let wall_s = start.elapsed().as_secs_f64();
        let contained = outcome.stats.cap_violation_time <= self.transient_budget
            && outcome.final_max_die.degrees() <= self.base.die_limit
            && outcome.trips.invariant() == 0;
        BuildingRun {
            scenario: script.name().to_owned(),
            controller: name.to_owned(),
            outcome,
            contained,
            wall_s,
            server_steps: script.steps() * self.servers() as u64,
        }
    }

    /// Verifies the building-scale robustness substrate: drive the
    /// chiller-failure case under supervised LUT on the plan-1
    /// building, checkpoint mid-fault (halfway through, inside the
    /// derate window), restore into fresh buildings built on thread
    /// plans {1, 2, 8}, and require every resumed run to finish
    /// bit-identically to the uninterrupted plan-1 run.
    #[must_use]
    pub fn checkpoint_round_trip(&self, plant: ChilledWaterSpec) -> bool {
        let script = &self.cases()[0];
        let lut = self.base.lut_controller();
        let fleet = || -> Vec<Box<dyn RoomController>> {
            (0..self.rooms)
                .map(|_| Box::new(lut.clone()) as Box<dyn RoomController>)
                .collect()
        };
        let fingerprint = |building: &Building, outcome: &BuildingOutcome| {
            let mut aisles = Vec::new();
            for r in 0..building.rooms() {
                let room = building.room(r).expect("room index in range");
                for rack in 0..room.racks() {
                    aisles.push(room.cold_aisle_temperature(rack).degrees().to_bits());
                }
            }
            (
                outcome.total_energy.value().to_bits(),
                outcome.final_max_die.degrees().to_bits(),
                outcome.stats.cap_violation_time,
                outcome.stats.decisions,
                (
                    outcome.trips.nan,
                    outcome.trips.conservation,
                    outcome.trips.runaway,
                ),
                outcome.sheds,
                aisles,
            )
        };

        let mut building = self.fresh_building(plant, ShardPlan::new(1));
        let mut controllers = fleet();
        let mut supervisor = self.supervisor();
        let mut runner = BuildingScenarioRunner::new(script.clone(), self.rooms);
        let reference = runner
            .run(&mut building, &mut controllers, &mut supervisor)
            .expect("reference run");
        let reference = fingerprint(&building, &reference);

        let mid = script.steps() / 2;
        let mut building = self.fresh_building(plant, ShardPlan::new(1));
        let mut controllers = fleet();
        let mut supervisor = self.supervisor();
        let mut runner = BuildingScenarioRunner::new(script.clone(), self.rooms);
        runner
            .run_steps(&mut building, &mut controllers, &mut supervisor, mid)
            .expect("pre-checkpoint run");
        let snap = runner.checkpoint(&mut building, &controllers, &supervisor);

        [1, 2, 8].into_iter().all(|plan| {
            let mut building = self.fresh_building(plant, ShardPlan::new(plan));
            let mut controllers = fleet();
            let mut supervisor = self.supervisor();
            let mut runner = BuildingScenarioRunner::new(script.clone(), self.rooms);
            runner
                .restore(&mut building, &mut controllers, &mut supervisor, &snap)
                .expect("restore succeeds");
            let outcome = runner
                .run(&mut building, &mut controllers, &mut supervisor)
                .expect("resumed run");
            fingerprint(&building, &outcome) == reference
        })
    }
}

/// One supervised controller's ride through one building fault script.
#[derive(Debug, Clone)]
pub struct BuildingRun {
    /// The script's name.
    pub scenario: String,
    /// Controller label (`LUT`, `MPC`).
    pub controller: String,
    /// The full scenario outcome (peak die, violation/recovery times,
    /// energies, supervision counters).
    pub outcome: BuildingOutcome,
    /// `true` when the excursion stayed within the transient budget,
    /// the run ended under the cap and no invariant monitor tripped.
    pub contained: bool,
    /// Wall-clock seconds of the scripted run.
    pub wall_s: f64,
    /// Server-steps of the scripted run.
    pub server_steps: u64,
}

/// A full building sweep: every case × supervised controller, plus the
/// cross-plan checkpoint bit-identity verdict.
#[derive(Debug, Clone)]
pub struct BuildingSweep {
    /// Per-(case, controller) rides, in sweep order.
    pub runs: Vec<BuildingRun>,
    /// Whether the mid-fault checkpoint restored onto thread plans
    /// {1, 2, 8} finished bit-identical to the uninterrupted run.
    pub checkpoint_bit_identical: bool,
    /// The transient budget the rides were judged against.
    pub transient_budget: SimDuration,
}

impl BuildingSweep {
    /// `true` when every supervised ride contained its fault (bounded
    /// transient, final state under the cap, zero invariant trips).
    #[must_use]
    pub fn all_contained(&self) -> bool {
        !self.runs.is_empty() && self.runs.iter().all(|r| r.contained)
    }

    /// The acceptance verdict: containment *and* cross-plan checkpoint
    /// bit-identity.
    #[must_use]
    pub fn accepted(&self) -> bool {
        self.all_contained() && self.checkpoint_bit_identical
    }

    /// Renders the sweep as one `leakctl-perf/v1` measurement —
    /// servers-stepped/sec of the MPC rides (the heaviest path) with
    /// the per-ride verdicts and supervision counters as extras.
    #[must_use]
    pub fn to_perf_result(&self) -> PerfResult {
        let mpc_steps: u64 = self
            .runs
            .iter()
            .filter(|r| r.controller == "MPC")
            .map(|r| r.server_steps)
            .sum();
        let mpc_wall: f64 = self
            .runs
            .iter()
            .filter(|r| r.controller == "MPC")
            .map(|r| r.wall_s)
            .sum();
        let per_run: Vec<String> = self
            .runs
            .iter()
            .map(|r| {
                format!(
                    "{{\"scenario\": \"{}\", \"controller\": \"{}\", \"peak_die_c\": {:.3}, \
                     \"final_die_c\": {:.3}, \"cap_violation_s\": {:.1}, \"sheds\": {}, \
                     \"escalations\": {}, \"shed_time_s\": {:.0}, \"invariant_trips\": {}, \
                     \"contained\": {}}}",
                    r.scenario,
                    r.controller,
                    r.outcome.stats.peak_die.degrees(),
                    r.outcome.final_max_die.degrees(),
                    r.outcome.stats.cap_violation_time.as_secs_f64(),
                    r.outcome.sheds,
                    r.outcome.escalations,
                    r.outcome.shed_time.as_secs_f64(),
                    r.outcome.trips.invariant(),
                    r.contained,
                )
            })
            .collect();
        PerfResult {
            name: "building_ctrl_servers_per_sec",
            steps: mpc_steps,
            wall_s: mpc_wall.max(1e-12),
            extra: vec![
                ("building_contained", format!("{}", self.all_contained())),
                (
                    "checkpoint_bit_identical",
                    format!("{}", self.checkpoint_bit_identical),
                ),
                (
                    "transient_budget_s",
                    format!("{:.0}", self.transient_budget.as_secs_f64()),
                ),
                ("per_run", format!("[{}]", per_run.join(", "))),
            ],
        }
    }
}

/// Runs the whole sweep: every case under supervised LUT and MPC
/// (identical buildings, plant sizing, loads and seeds), then the
/// cross-plan checkpoint round trip.
#[must_use]
pub fn run_building_sweep(spec: &BuildingSpec) -> BuildingSweep {
    let plant = spec.plant_spec();
    let lut = spec.base.lut_controller();
    let mpc = spec.base.mpc_controller();
    let mut runs = Vec::new();
    for script in &spec.cases() {
        runs.push(spec.run_one(plant, script, &|| Box::new(lut.clone()), "LUT"));
        runs.push(spec.run_one(plant, script, &|| Box::new(mpc.clone()), "MPC"));
    }
    BuildingSweep {
        runs,
        checkpoint_bit_identical: spec.checkpoint_round_trip(plant),
        transient_budget: spec.transient_budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ride(controller: &str, violation_s: u64, final_die: f64, contained: bool) -> BuildingRun {
        let mut outcome = {
            // A real (one-step) outcome shaped only for verdict
            // plumbing — `BuildingOutcome` is non-exhaustive.
            let mut spec = BuildingSpec::quick();
            spec.warmup_steps = 5;
            let plant = spec.plant_spec();
            let script = &spec.cases()[0];
            let mut building = spec.fresh_building(plant, ShardPlan::new(1));
            let mut controllers: Vec<Box<dyn RoomController>> = (0..spec.rooms)
                .map(|_| {
                    Box::new(leakctl::control::FixedSupplyController::new(Celsius::new(
                        18.0,
                    ))) as Box<dyn RoomController>
                })
                .collect();
            let mut supervisor = spec.supervisor();
            let mut runner = BuildingScenarioRunner::new(script.clone(), spec.rooms);
            runner
                .run_steps(&mut building, &mut controllers, &mut supervisor, 1)
                .unwrap();
            runner.outcome(&building, &supervisor)
        };
        outcome.stats.cap_violation_time = SimDuration::from_secs(violation_s);
        outcome.stats.peak_die = Celsius::new(final_die + 2.0);
        outcome.final_max_die = Celsius::new(final_die);
        outcome.sheds = 1;
        outcome.shed_time = SimDuration::from_secs(600);
        BuildingRun {
            scenario: "chiller-failure".to_owned(),
            controller: controller.to_owned(),
            outcome,
            contained,
            wall_s: 0.1,
            server_steps: 1_000,
        }
    }

    #[test]
    fn scripts_are_well_formed() {
        for spec in [BuildingSpec::quick(), BuildingSpec::full()] {
            let cases = spec.cases();
            assert_eq!(cases.len(), 3);
            let names: Vec<&str> = cases.iter().map(|c| c.name()).collect();
            assert_eq!(names, ["chiller-failure", "heat-wave", "correlated-surge"]);
            for case in &cases {
                assert!(case.steps() > 0);
                assert!(case.events() >= 2, "{}", case.name());
            }
            assert!(spec.servers() >= 8);
        }
    }

    #[test]
    fn plant_is_sized_above_full_load_demand() {
        let spec = BuildingSpec::quick();
        let plant = spec.plant_spec();
        // Sized with margin: a healthy plant must cover the probe
        // demand with room to spare but stay tight enough that a 45 %
        // chiller derate oversubscribes it.
        let per_room = plant.capacity.value() / (spec.capacity_margin * spec.rooms as f64);
        assert!(per_room > 0.0 && per_room.is_finite());
        assert!(plant.capacity.value() * 0.45 < per_room * spec.rooms as f64);
    }

    #[test]
    fn gate_requires_containment_and_bit_identity() {
        let sweep = BuildingSweep {
            runs: vec![ride("LUT", 30, 70.0, true), ride("MPC", 0, 69.0, true)],
            checkpoint_bit_identical: true,
            transient_budget: SimDuration::from_secs(300),
        };
        assert!(sweep.all_contained());
        assert!(sweep.accepted());

        let mut failed = sweep.clone();
        failed.runs[0].contained = false;
        assert!(!failed.accepted());

        let mut broken = sweep;
        broken.checkpoint_bit_identical = false;
        assert!(!broken.accepted());
    }

    #[test]
    fn sweep_renders_verdicts_and_per_run_extras() {
        let sweep = BuildingSweep {
            runs: vec![ride("LUT", 30, 70.0, true), ride("MPC", 0, 69.0, true)],
            checkpoint_bit_identical: true,
            transient_budget: SimDuration::from_secs(300),
        };
        let result = sweep.to_perf_result();
        assert_eq!(result.name, "building_ctrl_servers_per_sec");
        let extras: Vec<&str> = result.extra.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            extras,
            [
                "building_contained",
                "checkpoint_bit_identical",
                "transient_budget_s",
                "per_run"
            ]
        );
        assert_eq!(result.extra[0].1, "true");
        let per_run = &result.extra[3].1;
        assert!(per_run.starts_with('['));
        assert!(per_run.contains("\"controller\": \"MPC\""));
        assert!(per_run.contains("\"sheds\": 1"));
        // Only MPC rides feed the throughput number.
        assert_eq!(result.steps, 1_000);
    }

    #[test]
    fn quick_sweep_contains_and_round_trips() {
        // The full acceptance run lives in the repro-building binary;
        // this is a fast smoke check of the same plumbing end to end on
        // the tiny quick floor.
        let mut spec = BuildingSpec::quick();
        spec.warmup_steps = 60;
        let sweep = run_building_sweep(&spec);
        assert_eq!(sweep.runs.len(), 6);
        assert!(sweep.checkpoint_bit_identical);
        assert!(sweep.all_contained(), "runs: {:?}", sweep.runs);
        for run in &sweep.runs {
            assert!(run.outcome.stats.decisions > 0);
            assert!(run.outcome.stats.peak_die.degrees() > 30.0);
            assert_eq!(run.outcome.trips.invariant(), 0);
        }
    }
}
