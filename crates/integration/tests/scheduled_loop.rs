//! Scheduled closed-loop properties: the scheduler + controller loop
//! is bit-identical across worker-thread counts, a rejected
//! [`PlacementAction`] mutates nothing, and the resident placement
//! (budgets included) rides checkpoint/restore.

use leakctl::control::{ControlAction, LutSetPointController, RoomController};
use leakctl::room::{Room, RoomConfig};
use leakctl::schedule::{
    JobStream, JobStreamConfig, LocalSearchScheduler, PlacementAction, RoomScheduler,
    ScheduledLoop, ThermalGreedyConfig, ThermalGreedyScheduler,
};
use leakctl::{CoreError, PlacementError};
use leakctl_thermal::ShardPlan;
use leakctl_units::{Rpm, SimDuration, Watts};
use proptest::prelude::*;

/// Fingerprint of a room trajectory, exact to the bit.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The scheduled closed loop — job arrivals, placement decisions,
    /// admission, cooling control and physics — is deterministic under
    /// cross-rack sharding: for any floor geometry, arrival rate and
    /// placement policy (thermal-greedy or local-search), the
    /// trajectory and every scheduling counter are bit-identical at 1,
    /// 2 and 8 worker threads.
    #[test]
    fn scheduled_loop_bit_identical_across_thread_counts(
        rows in 1usize..3,
        cols in 1usize..3,
        spr in 2usize..5,
        recirc in 0.0..0.4f64,
        rate in 0.05..0.5f64,
        steps in 40u64..90,
        seed in 0u64..1_000,
        refine in proptest::any::<bool>(),
    ) {
        let run = |threads: usize| {
            let mut config = RoomConfig::new(rows, cols, spr);
            config.recirculation_fraction = recirc;
            config.seed = seed;
            let mut room = Room::with_plan(config, ShardPlan::new(threads)).unwrap();
            room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(1800.0)))
                .unwrap();
            let mut cfg = ThermalGreedyConfig::paper_default();
            cfg.period = SimDuration::from_secs(10);
            let mut scheduler: Box<dyn RoomScheduler> = if refine {
                Box::new(LocalSearchScheduler::new(cfg))
            } else {
                Box::new(ThermalGreedyScheduler::new(cfg))
            };
            let mut controller =
                LutSetPointController::paper_default().with_period(SimDuration::from_secs(30));
            controller.reset();
            let mut jobs = JobStreamConfig::new(rate, seed);
            jobs.mean_duration = SimDuration::from_secs(45);
            jobs.min_duration = SimDuration::from_secs(10);
            let mut the_loop = ScheduledLoop::new(JobStream::generate(jobs).unwrap());
            let stats = the_loop
                .run(
                    &mut room,
                    scheduler.as_mut(),
                    &mut controller,
                    SimDuration::from_secs(1),
                    steps,
                )
                .unwrap();
            (
                fingerprint(&room),
                stats.submitted,
                stats.placed,
                stats.rejected,
                stats.completed,
                stats.peak_die.degrees().to_bits(),
            )
        };
        let reference = run(1);
        for threads in [2usize, 8] {
            prop_assert_eq!(run(threads), reference.clone(), "threads {}", threads);
        }
    }

    /// Chunked runs compose: `run(a)` followed by `run(b)` is `run(a +
    /// b)` — queue, resident jobs, clock, both decision cadences and
    /// every counter carry across the chunk boundary.
    #[test]
    fn chunked_scheduled_runs_match_one_run(
        rows in 1usize..3,
        cols in 1usize..3,
        spr in 2usize..5,
        rate in 0.05..0.5f64,
        steps in 40u64..90,
        split in 0.0..1.0f64,
        seed in 0u64..1_000,
    ) {
        let run = |chunks: &[u64]| {
            let mut config = RoomConfig::new(rows, cols, spr);
            config.seed = seed;
            let mut room = Room::with_plan(config, ShardPlan::new(1)).unwrap();
            room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(1800.0)))
                .unwrap();
            let mut cfg = ThermalGreedyConfig::paper_default();
            cfg.period = SimDuration::from_secs(10);
            let mut scheduler = ThermalGreedyScheduler::new(cfg);
            let mut controller =
                LutSetPointController::paper_default().with_period(SimDuration::from_secs(30));
            let mut jobs = JobStreamConfig::new(rate, seed);
            jobs.mean_duration = SimDuration::from_secs(45);
            jobs.min_duration = SimDuration::from_secs(10);
            let mut the_loop = ScheduledLoop::new(JobStream::generate(jobs).unwrap());
            for &steps in chunks {
                the_loop
                    .run(
                        &mut room,
                        &mut scheduler,
                        &mut controller,
                        SimDuration::from_secs(1),
                        steps,
                    )
                    .unwrap();
            }
            (
                fingerprint(&room),
                *the_loop.stats(),
                the_loop.now(),
                the_loop.pending_jobs(),
                the_loop.running_jobs(),
            )
        };
        let a = (steps as f64 * split) as u64;
        prop_assert_eq!(run(&[a, steps - a]), run(&[steps]), "split at {}", a);
    }
}

/// A rejected placement is atomic: after any malformed action errors
/// out, the room's resident placement, budgets and full forward
/// trajectory are indistinguishable from a room that never saw it.
#[test]
fn rejected_placements_mutate_nothing() {
    let mut config = RoomConfig::new(2, 2, 3);
    config.seed = 7;
    let mut room = Room::new(config.clone()).unwrap();
    let good = PlacementAction::from_fractions(vec![0.9, 0.2, 0.6, 0.4]).with_power_budgets(vec![
        Some(Watts::new(1500.0)),
        None,
        None,
        Some(Watts::new(1200.0)),
    ]);
    room.apply_placement(&good).unwrap();
    room.step_placed(SimDuration::from_secs(30)).unwrap();
    let before = room.checkpoint();
    let placement_before = room.placement().to_vec();
    let budgets_before = room.power_budgets().to_vec();

    let wrong_count = PlacementAction::from_fractions(vec![0.5; 3]);
    let nan = PlacementAction::from_fractions(vec![0.5, f64::NAN, 0.5, 0.5]);
    let out_of_range = PlacementAction::from_fractions(vec![0.5, 0.5, 1.5, 0.5]);
    let negative = PlacementAction::from_fractions(vec![0.5, 0.5, 0.5, -0.1]);
    let short_budgets =
        PlacementAction::uniform(4, 0.5).with_power_budgets(vec![Some(Watts::new(900.0)); 2]);
    let bad_budget = PlacementAction::uniform(4, 0.5).with_power_budgets(vec![
        Some(Watts::new(-5.0)),
        None,
        None,
        None,
    ]);
    for (action, check) in [
        (&wrong_count, "rack count" as &str),
        (&nan, "utilization"),
        (&out_of_range, "utilization"),
        (&negative, "utilization"),
        (&short_budgets, "budget count"),
        (&bad_budget, "budget value"),
    ] {
        let err = room.apply_placement(action).unwrap_err();
        assert!(
            matches!(err, CoreError::Placement(_)),
            "{check}: expected a placement error, got {err}"
        );
        assert_eq!(room.placement(), &placement_before[..], "{check}");
        assert_eq!(room.power_budgets(), &budgets_before[..], "{check}");
    }
    match room.apply_placement(&wrong_count).unwrap_err() {
        CoreError::Placement(PlacementError::RackCountMismatch { got, racks }) => {
            assert_eq!((got, racks), (3, 4));
        }
        other => panic!("unexpected error: {other}"),
    }

    // The forward trajectory is byte-for-byte that of a room that
    // never saw the rejected actions.
    room.step_placed(SimDuration::from_secs(60)).unwrap();
    let after_rejects = fingerprint(&room);
    let mut untouched = Room::new(config).unwrap();
    untouched.restore(&before).unwrap();
    untouched.step_placed(SimDuration::from_secs(60)).unwrap();
    assert_eq!(fingerprint(&untouched), after_rejects);
}

/// The resident placement and its power budgets ride
/// checkpoint/restore: a restored room resumes the exact budgeted
/// trajectory without the placement being re-applied.
#[test]
fn checkpoint_restore_preserves_placement_mid_run() {
    let mut config = RoomConfig::new(1, 3, 2);
    config.seed = 11;
    let mut room = Room::new(config.clone()).unwrap();
    let action = PlacementAction::from_fractions(vec![1.0, 0.3, 0.7]).with_power_budgets(vec![
        Some(Watts::new(950.0)),
        None,
        Some(Watts::new(980.0)),
    ]);
    room.apply_placement(&action).unwrap();
    for _ in 0..20 {
        room.step_placed(SimDuration::from_secs(1)).unwrap();
    }
    let snapshot = room.checkpoint();
    for _ in 0..40 {
        room.step_placed(SimDuration::from_secs(1)).unwrap();
    }
    let uninterrupted = fingerprint(&room);

    let mut resumed = Room::new(config).unwrap();
    resumed.restore(&snapshot).unwrap();
    assert_eq!(resumed.placement(), room.placement());
    assert_eq!(
        resumed.power_budgets(),
        &[Some(Watts::new(950.0)), None, Some(Watts::new(980.0))][..]
    );
    for _ in 0..40 {
        resumed.step_placed(SimDuration::from_secs(1)).unwrap();
    }
    assert_eq!(fingerprint(&resumed), uninterrupted);
}
