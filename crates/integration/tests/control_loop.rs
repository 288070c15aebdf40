//! Closed-loop room control properties: bit-identical controlled
//! trajectories across worker-thread counts, and the set-point
//! acceptance claim (adaptive control never loses to the best fixed
//! supply) pinned on a reduced sweep that runs in debug-mode CI.

use leakctl::control::{
    ControlAction, LutSetPointController, MpcConfig, MpcSetPointController, RoomController,
    TileFlowBalancer,
};
use leakctl::room::{Room, RoomConfig};
use leakctl::scenario::{Scenario, ScenarioRunner};
use leakctl_bench::setpoint::{run_setpoint_sweep, SetPointScenario};
use leakctl_thermal::ShardPlan;
use leakctl_units::{Celsius, Rpm, SimDuration, Utilization};
use proptest::prelude::*;

/// Fingerprint of a controlled room trajectory, exact to the bit.
fn fingerprint(room: &Room) -> (u64, u64, u64, Vec<u64>) {
    let aisles: Vec<u64> = (0..room.racks())
        .map(|r| room.cold_aisle_temperature(r).degrees().to_bits())
        .collect();
    (
        room.total_energy().value().to_bits(),
        room.max_die_temperature().degrees().to_bits(),
        room.cooling_energy().value().to_bits(),
        aisles,
    )
}

fn controller(use_mpc: bool) -> Box<dyn RoomController> {
    if use_mpc {
        let mut cfg = MpcConfig::paper_default();
        cfg.candidates = vec![Celsius::new(18.0), Celsius::new(22.0), Celsius::new(26.0)];
        cfg.period = SimDuration::from_secs(30);
        Box::new(MpcSetPointController::new(cfg).with_balancer(TileFlowBalancer::new(0.02)))
    } else {
        Box::new(
            LutSetPointController::paper_default()
                .with_balancer(TileFlowBalancer::new(0.02))
                .with_period(SimDuration::from_secs(30)),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The control loop is deterministic under cross-rack sharding:
    /// for any floor geometry, recirculation fraction and controller
    /// (LUT or preview-driven MPC), the controlled trajectory —
    /// decisions included — is bit-identical at 1, 2 and 8 worker
    /// threads.
    #[test]
    fn controlled_room_bit_identical_across_thread_counts(
        rows in 1usize..3,
        cols in 1usize..3,
        spr in 2usize..5,
        recirc in 0.0..0.4f64,
        period in 20u64..60,
        steps in 40u64..90,
        seed in 0u64..1_000,
        use_mpc in proptest::any::<bool>(),
    ) {
        let run = |threads: usize| {
            let mut config = RoomConfig::new(rows, cols, spr);
            config.recirculation_fraction = recirc;
            config.seed = seed;
            let mut room = Room::with_plan(config, ShardPlan::new(threads)).unwrap();
            room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(2400.0)))
                .unwrap();
            let mut ctl = controller(use_mpc);
            ctl.reset();
            let dt = SimDuration::from_secs(1);
            room.run_controlled(ctl.as_mut(), dt, steps, |i| {
                if i % period < period / 2 {
                    Utilization::FULL
                } else {
                    Utilization::saturating_from_fraction(0.25)
                }
            })
            .unwrap();
            fingerprint(&room)
        };
        let reference = run(1);
        for threads in [2usize, 8] {
            prop_assert_eq!(run(threads), reference.clone(), "threads {}", threads);
        }
    }

    /// A `ScenarioRunner` over an event-free script at constant load
    /// is `Room::run_controlled` at that load: the same decisions,
    /// applied actions and peak die, and the same trajectory, bit for
    /// bit.
    #[test]
    fn event_free_scenario_matches_run_controlled(
        rows in 1usize..3,
        cols in 1usize..3,
        spr in 2usize..5,
        recirc in 0.0..0.4f64,
        load in 0.1..1.0f64,
        steps in 40u64..90,
        seed in 0u64..1_000,
        use_mpc in proptest::any::<bool>(),
    ) {
        let make_room = || {
            let mut config = RoomConfig::new(rows, cols, spr);
            config.recirculation_fraction = recirc;
            config.seed = seed;
            let mut room = Room::with_plan(config, ShardPlan::new(1)).unwrap();
            room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(2400.0)))
                .unwrap();
            room
        };
        let load = Utilization::saturating_from_fraction(load);
        let dt = SimDuration::from_secs(1);

        let mut room = make_room();
        let mut ctl = controller(use_mpc);
        let stats = room.run_controlled(ctl.as_mut(), dt, steps, |_| load).unwrap();

        let mut scripted = make_room();
        let mut ctl = controller(use_mpc);
        let script = Scenario::new("constant", dt * steps, dt).with_initial_load(load);
        let outcome = ScenarioRunner::new(script)
            .run(&mut scripted, ctl.as_mut())
            .unwrap();

        prop_assert_eq!(outcome.stats.decisions, stats.decisions);
        prop_assert_eq!(outcome.stats.applied, stats.applied);
        prop_assert_eq!(
            outcome.stats.peak_die.degrees().to_bits(),
            stats.peak_die.degrees().to_bits()
        );
        prop_assert_eq!(fingerprint(&scripted), fingerprint(&room));
    }
}

/// The paper's room-scale claim, pinned where debug-mode CI can afford
/// it: on a reduced sweep (one recirculation fraction, a five-point
/// fixed grid) both adaptive controllers stay under the hot-spot cap
/// and spend no more total energy than the best feasible fixed supply.
/// The full 256-server figure with three β values runs in release via
/// the `repro-setpoint` bench gate.
#[test]
fn adaptive_control_never_loses_to_the_best_fixed_supply() {
    let mut scenario = SetPointScenario::quick();
    scenario.betas = vec![0.2];
    scenario.fixed_supplies = vec![22.0, 24.0, 26.0, 28.0, 30.0];

    let sweep = run_setpoint_sweep(&scenario);
    let result = &sweep.betas[0];
    let best = result
        .best_fixed()
        .expect("the grid straddles the feasibility edge");
    for run in [&result.lut, &result.mpc] {
        assert!(
            run.feasible,
            "{} violated the cap: max die {:.2} C",
            run.name, run.max_die_c
        );
        assert!(
            run.total_kwh <= best.total_kwh,
            "{} spent {:.4} kWh, best fixed ({}) only {:.4} kWh",
            run.name,
            run.total_kwh,
            best.name,
            best.total_kwh
        );
    }
}
