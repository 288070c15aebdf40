//! Checkpoint/restore properties: a scenario interrupted at any step
//! and restored into a fresh room and controller — under a *different*
//! worker-thread plan — finishes bit-identically to a run that was
//! never interrupted, for every controller kind and any mid-scenario
//! checkpoint point (including mid-fault). Every server's CSTH capture
//! resumes exactly too.

use leakctl::control::{
    ControlAction, FixedSupplyController, LutSetPointController, MpcConfig, MpcSetPointController,
    RoomController, TileFlowBalancer,
};
use leakctl::prelude::FanFault;
use leakctl::room::{Room, RoomConfig};
use leakctl::scenario::{Scenario, ScenarioEvent, ScenarioRunner};
use leakctl::RoomError;
use leakctl_thermal::ShardPlan;
use leakctl_units::{Celsius, Rpm, SimDuration, Utilization};
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

fn controller(kind: u8) -> Box<dyn RoomController> {
    match kind % 3 {
        0 => Box::new(FixedSupplyController::new(Celsius::new(20.0))),
        1 => Box::new(
            LutSetPointController::paper_default()
                .with_balancer(TileFlowBalancer::new(0.02))
                .with_period(SimDuration::from_secs(20)),
        ),
        _ => {
            let mut cfg = MpcConfig::paper_default();
            cfg.candidates = vec![Celsius::new(16.0), Celsius::new(20.0), Celsius::new(24.0)];
            cfg.period = SimDuration::from_secs(20);
            Box::new(MpcSetPointController::new(cfg).with_balancer(TileFlowBalancer::new(0.02)))
        }
    }
}

/// A script that keeps the room mid-fault for most of its span: a CRAH
/// derate, a degraded fan bank, a load spike, then a same-instant
/// repair of plant and fans.
fn script(steps: u64, spr: usize) -> Scenario {
    let dt = SimDuration::from_secs(1);
    Scenario::new("prop", dt * steps, dt)
        .with_initial_load(Utilization::saturating_from_fraction(0.6))
        .at(dt * (steps / 5), ScenarioEvent::CrahCapacity(0.6))
        .at(
            dt * (steps / 3),
            ScenarioEvent::FanFault {
                rack: 0,
                server: spr - 1,
                fault: FanFault::Degraded { flow_scale: 0.5 },
            },
        )
        .at(dt * (steps / 2), ScenarioEvent::Load(Utilization::FULL))
        .at(dt * (2 * steps / 3), ScenarioEvent::CrahCapacity(1.0))
        .at(
            dt * (2 * steps / 3),
            ScenarioEvent::FanFault {
                rack: 0,
                server: spr - 1,
                fault: FanFault::None,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any geometry, recirculation fraction, controller kind and
    /// checkpoint point, interrupting at that point and restoring into
    /// a fresh room on a *different* shard plan resumes the exact
    /// trajectory of an uninterrupted single-threaded run.
    #[test]
    fn checkpoint_restore_resumes_bit_identically(
        rows in 1usize..3,
        cols in 1usize..3,
        spr in 2usize..5,
        recirc in 0.0..0.4f64,
        steps in 60u64..120,
        at in 0.1..0.9f64,
        seed in 0u64..1_000,
        kind in 0u8..3,
    ) {
        let make_room = |threads: usize| {
            let mut config = RoomConfig::new(rows, cols, spr);
            config.recirculation_fraction = recirc;
            config.seed = seed;
            let mut room = Room::with_plan(config, ShardPlan::new(threads)).unwrap();
            room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(2400.0)))
                .unwrap();
            room
        };

        // Uninterrupted single-threaded reference.
        let mut room = make_room(1);
        let mut ctl = controller(kind);
        let mut runner = ScenarioRunner::new(script(steps, spr));
        runner.run(&mut room, ctl.as_mut()).unwrap();
        let reference = fingerprint(&room);

        let mid = ((steps as f64 * at) as u64).clamp(1, steps - 1);
        for (threads, resumed_threads) in [(1usize, 8usize), (2, 1), (8, 2)] {
            let mut room = make_room(threads);
            let mut ctl = controller(kind);
            let mut runner = ScenarioRunner::new(script(steps, spr));
            runner.run_steps(&mut room, ctl.as_mut(), mid).unwrap();
            let snap = runner.checkpoint(&mut room, ctl.as_ref());
            prop_assert_eq!(snap.step(), mid);

            let mut resumed_room = make_room(resumed_threads);
            let mut resumed_ctl = controller(kind);
            let mut resumed_runner = ScenarioRunner::new(script(steps, spr));
            resumed_runner
                .restore(&mut resumed_room, resumed_ctl.as_mut(), &snap)
                .unwrap();
            resumed_runner
                .run(&mut resumed_room, resumed_ctl.as_mut())
                .unwrap();
            prop_assert_eq!(
                fingerprint(&resumed_room),
                reference.clone(),
                "threads {} -> {}",
                threads,
                resumed_threads
            );
        }
    }

    /// Driving a script one step per `run_steps(1)` call, as the
    /// benchmark does, finishes exactly like one `run`: the same
    /// outcome (decisions, cap accounting, energies) and the same
    /// trajectory, bit for bit.
    #[test]
    fn single_step_chunks_match_one_run(
        rows in 1usize..3,
        cols in 1usize..3,
        spr in 2usize..5,
        recirc in 0.0..0.4f64,
        steps in 60u64..120,
        seed in 0u64..1_000,
        kind in 0u8..3,
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

        let mut room = make_room();
        let mut ctl = controller(kind);
        let reference = ScenarioRunner::new(script(steps, spr))
            .run(&mut room, ctl.as_mut())
            .unwrap();

        let mut chunked = make_room();
        let mut ctl = controller(kind);
        let mut runner = ScenarioRunner::new(script(steps, spr));
        for _ in 0..steps {
            runner.run_steps(&mut chunked, ctl.as_mut(), 1).unwrap();
        }
        prop_assert!(runner.finished());
        prop_assert_eq!(runner.outcome(&chunked), reference);
        prop_assert_eq!(fingerprint(&chunked), fingerprint(&room));
    }
}

/// Per server, in rack order: CSTH frame count and an FNV-1a hash of
/// the capture's CSV export.
fn capture_signature(room: &mut Room) -> Vec<(usize, u64)> {
    let per_rack = room.servers() / room.racks();
    let mut out = Vec::new();
    for rack in 0..room.racks() {
        for i in 0..per_rack {
            let csth = room.server(rack, i).expect("server in range").csth();
            let mut hash = 0xcbf2_9ce4_8422_2325_u64;
            for byte in csth.to_csv().expect("clean channel names").bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
            out.push((csth.frame_count(), hash));
        }
    }
    out
}

/// The CSTH history rides a room checkpoint exactly. The checkpoint is
/// taken past two full 16-frame blocks and mid-block; restored into the
/// same room or into a room on another thread plan, every server's
/// capture ends as in an uninterrupted run, and a checkpoint taken and
/// dropped leaves the live capture untouched.
#[test]
fn csth_capture_resumes_exactly_after_restore() {
    const MID: u64 = 395;
    const END: u64 = 600;
    let make_room = |threads: usize| {
        let mut room = Room::with_plan(RoomConfig::new(1, 2, 3), ShardPlan::new(threads)).unwrap();
        room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(2400.0)))
            .unwrap();
        room
    };
    let run = |room: &mut Room, from: u64, to: u64| {
        for s in from..to {
            let load = if (s / 120).is_multiple_of(2) {
                0.9
            } else {
                0.3
            };
            room.step(
                SimDuration::from_secs(1),
                Utilization::saturating_from_fraction(load),
            )
            .unwrap();
        }
    };

    let mut reference = make_room(1);
    run(&mut reference, 0, END);
    let reference = capture_signature(&mut reference);

    let mut room = make_room(1);
    run(&mut room, 0, MID);
    let snap = room.checkpoint();
    drop(room.checkpoint());
    let frames = capture_signature(&mut room)[0].0;
    assert!(frames > 32 && !frames.is_multiple_of(16), "{frames} frames");
    run(&mut room, MID, END);
    assert_eq!(capture_signature(&mut room), reference, "live capture");

    room.restore(&snap).unwrap();
    run(&mut room, MID, END);
    assert_eq!(capture_signature(&mut room), reference, "same room");

    let mut other = make_room(2);
    run(&mut other, 0, 100);
    other.restore(&snap).unwrap();
    run(&mut other, MID, END);
    assert_eq!(capture_signature(&mut other), reference, "other plan");
}

/// A checkpoint refuses to restore into a room of a different shape,
/// and the refusal mutates nothing — the mismatched room continues
/// exactly as if the restore was never attempted.
#[test]
fn restore_rejects_a_mismatched_room_without_mutating_it() {
    let mut room = Room::new(RoomConfig::new(1, 2, 3)).unwrap();
    let mut ctl = FixedSupplyController::new(Celsius::new(20.0));
    let mut runner = ScenarioRunner::new(script(60, 3));
    runner.run_steps(&mut room, &mut ctl, 30).unwrap();
    let snap = runner.checkpoint(&mut room, &ctl);

    let mut other = Room::new(RoomConfig::new(1, 2, 4)).unwrap();
    let mut other_ctl = FixedSupplyController::new(Celsius::new(20.0));
    let mut other_runner = ScenarioRunner::new(script(60, 4));
    other_runner
        .run_steps(&mut other, &mut other_ctl, 10)
        .unwrap();
    let before = fingerprint(&other);

    let err = other_runner
        .restore(&mut other, &mut other_ctl, &snap)
        .unwrap_err();
    assert!(matches!(err, RoomError::CheckpointMismatch { .. }));
    assert_eq!(fingerprint(&other), before);
    other_runner.run(&mut other, &mut other_ctl).unwrap();
    assert!(other_runner.finished());
}
