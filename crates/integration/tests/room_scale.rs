//! Room-scale acceptance properties: energy conservation through the
//! CRAH, equivalence of a degenerate room to the scalar fleet model,
//! and bit-identity of room stepping across thread counts.

use leakctl::control::ControlAction;
use leakctl::fleet::Fleet;
use leakctl::room::{Room, RoomConfig};
use leakctl_platform::ServerConfig;
use leakctl_thermal::ShardPlan;
use leakctl_units::{Celsius, Rpm, SimDuration, Utilization};
use proptest::prelude::*;

/// Pins every fan in the room through the typed action path.
fn pin_fans(room: &mut Room, rpm: f64) {
    room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(rpm)))
        .unwrap();
}

/// At steady state the heat the CRAH extracts from the return stream
/// must equal the total fleet dissipation — the room model neither
/// creates nor loses energy, for a non-trivial recirculating floor
/// with an uneven tile split.
#[test]
fn steady_state_crah_heat_out_equals_fleet_power() {
    let mut config = RoomConfig::new(1, 2, 4);
    config.crah_units = 1;
    config.recirculation_fraction = 0.25;
    let mut room = Room::new(config).unwrap();
    pin_fans(&mut room, 3000.0);
    let dt = SimDuration::from_secs(1);
    for _ in 0..3_600 {
        room.step(dt, Utilization::FULL).unwrap();
    }
    let removed = room.air().crah_heat_removed().value();
    let it = room.total_power().value();
    assert!(
        ((removed - it) / it).abs() < 1e-6,
        "CRAH extraction {removed} W must match IT dissipation {it} W"
    );
}

/// A 1-rack room with zero recirculation and a fixed CRAH supply at
/// the servers' ambient degenerates to the scalar fleet model with
/// `r = 0`: the cold aisle never moves off the supply temperature, so
/// the trajectories must agree to 1e-9.
#[test]
fn one_rack_room_reproduces_scalar_fleet_trajectory() {
    let count = 3;
    let seed = 77;
    let server = ServerConfig::default();

    let mut config = RoomConfig::new(1, 1, count);
    config.server = server.clone();
    config.recirculation_fraction = 0.0;
    config.crah_supply = server.ambient;
    config.seed = seed;
    let mut room = Room::new(config).unwrap();
    pin_fans(&mut room, 2700.0);

    let mut fleet = Fleet::new(server, count, 0.0, seed).unwrap();
    fleet.command_all(Rpm::new(2700.0));

    let dt = SimDuration::from_secs(1);
    for step in 0..600 {
        let act = if step % 90 < 45 {
            Utilization::FULL
        } else {
            Utilization::IDLE
        };
        room.step(dt, act).unwrap();
        fleet.step(dt, act).unwrap();
    }
    // The degenerate cold aisle holds the supply temperature.
    let inlet = room.cold_aisle_temperature(0).degrees();
    assert!(
        (inlet - 24.0).abs() < 1e-9,
        "zero-recirculation cold aisle drifted to {inlet}"
    );
    // Ground truth matches the scalar T_room + r·P fleet (r = 0).
    let room_energy = room.it_energy().value();
    let fleet_energy = fleet.total_energy().value();
    assert!(
        ((room_energy - fleet_energy) / fleet_energy).abs() < 1e-9,
        "energy: room {room_energy} J vs fleet {fleet_energy} J"
    );
    for i in 0..count {
        let t = room.server(0, i).unwrap().max_die_temperature();
        let want = fleet.server(i).unwrap().max_die_temperature().degrees();
        assert!(
            (t.degrees() - want).abs() < 1e-9,
            "server {i}: room {t} vs fleet {want}"
        );
    }
}

/// Fingerprint of a room trajectory, exact to the bit.
fn room_fingerprint(room: &Room) -> (u64, u64, u64, Vec<u64>) {
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

    /// Cross-rack sharding is a pure performance knob: for any floor
    /// geometry, recirculation fraction, supply set-point and activity
    /// schedule, the room trajectory is bit-identical at 1, 2 and 8
    /// worker threads.
    #[test]
    fn room_stepping_bit_identical_across_thread_counts(
        rows in 1usize..3,
        cols in 1usize..3,
        spr in 2usize..5,
        recirc in 0.0..0.5f64,
        supply in 16.0..26.0f64,
        period in 20usize..60,
        steps in 40usize..90,
        seed in 0u64..1_000,
    ) {
        let run = |threads: usize| {
            let mut config = RoomConfig::new(rows, cols, spr);
            config.recirculation_fraction = recirc;
            config.crah_supply = Celsius::new(supply);
            config.seed = seed;
            let mut room = Room::with_plan(config, ShardPlan::new(threads)).unwrap();
            pin_fans(&mut room, 2700.0);
            let dt = SimDuration::from_secs(1);
            for step in 0..steps {
                let act = if step % period < period / 2 {
                    Utilization::FULL
                } else {
                    Utilization::IDLE
                };
                room.step(dt, act).unwrap();
            }
            room_fingerprint(&room)
        };
        let reference = run(1);
        for threads in [2usize, 8] {
            prop_assert_eq!(run(threads), reference.clone(), "threads {}", threads);
        }
    }
}
