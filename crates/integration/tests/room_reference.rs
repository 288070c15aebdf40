//! A room never changes the physics: every server of a [`Room`]
//! reproduces the scalar reference — a separate [`RoomAirModel`] built
//! from the same spec, with each server stepped alone through
//! `Server::step` on its rack's cold-aisle temperature — bit for bit.
//! The script runs per-rack placement activities, a blocked floor tile,
//! a `Degraded` fan in one rack and a checkpoint restored both into the
//! room that ran past it and into rooms on a two-worker plan, over a
//! floor whose racks straddle both lane tiles and shard boundaries.

use leakctl::control::ControlAction;
use leakctl::room::{Room, RoomConfig};
use leakctl::schedule::PlacementAction;
use leakctl_platform::{FanFault, Server};
use leakctl_thermal::{RoomAirModel, RoomAirSpec, ShardPlan};
use leakctl_units::{Joules, Rpm, SimDuration, Utilization, Watts};

/// 13 racks of 3 servers: 39 lanes, so a room on one worker steps more
/// than one lane tile, and on two workers rack 6 straddles the shard
/// boundary.
fn config() -> RoomConfig {
    let mut config = RoomConfig::new(1, 13, 3);
    config.recirculation_fraction = 0.2;
    config.seed = 5;
    config
}

/// The fan floor the script commands, the rack and server whose fan
/// degrades, and the step it happens.
const FAN_FLOOR: f64 = 2700.0;
const FAULT_RACK: usize = 4;
const FAULT_SERVER: usize = 1;
const FAULT: FanFault = FanFault::Degraded { flow_scale: 0.6 };
const FAULT_STEP: u64 = 90;
const BLOCKED_RACK: usize = 9;
const BLOCKED_STEP: u64 = 150;
const STEPS: u64 = 360;
const CHECKPOINT_STEP: u64 = 200;

/// Rack `rack`'s activity over step `step`: uneven across the floor and
/// changing over time.
fn activity(rack: usize, step: u64) -> Utilization {
    let phase = (step / 60 + rack as u64) % 4;
    Utilization::saturating_from_fraction(0.25 * phase as f64 + 0.1)
}

fn placement(racks: usize, step: u64) -> PlacementAction {
    let loads: Vec<Utilization> = (0..racks).map(|r| activity(r, step)).collect();
    PlacementAction::from_utilizations(&loads)
}

/// The scalar reference: a separate air model and one `Server` per
/// server, stepped one by one.
#[derive(Clone)]
struct Reference {
    air: RoomAirModel,
    racks: Vec<Vec<Server>>,
}

impl Reference {
    fn new(config: &RoomConfig) -> Self {
        let spec = RoomAirSpec::with_tile_flows(
            config.crah_supply,
            config.tile_flows(),
            config.recirculation_fraction,
        );
        let spr = config.servers_per_rack;
        let racks = (0..config.racks())
            .map(|r| {
                (0..spr)
                    .map(|i| {
                        let seed = config.seed + (r * spr + i) as u64;
                        let mut server = Server::new(config.server.clone(), seed).unwrap();
                        server.command_fan_speed(Rpm::new(FAN_FLOOR));
                        server
                    })
                    .collect()
            })
            .collect();
        Self {
            air: RoomAirModel::new(spec).unwrap(),
            racks,
        }
    }

    /// One room step: rack powers (summed in server order) into the air
    /// model, the air step, then every server on its rack's cold aisle.
    fn step(&mut self, dt: SimDuration, step: u64) {
        for (r, rack) in self.racks.iter().enumerate() {
            let power: f64 = rack.iter().map(|s| s.total_power().value()).sum();
            self.air.set_rack_power(r, Watts::new(power)).unwrap();
        }
        self.air.step(dt).unwrap();
        for (r, rack) in self.racks.iter_mut().enumerate() {
            let inlet = self.air.cold_aisle_temperature(r);
            for server in rack {
                server.set_ambient(inlet).unwrap();
                server.step(dt, activity(r, step)).unwrap();
            }
        }
    }

    fn apply_events(&mut self, step: u64) {
        if step == FAULT_STEP {
            self.racks[FAULT_RACK][FAULT_SERVER].inject_fan_fault(FAULT);
        }
        if step == BLOCKED_STEP {
            self.air.set_tile_blockage(BLOCKED_RACK, 0.5).unwrap();
        }
    }

    fn it_energy(&self) -> Joules {
        self.racks
            .iter()
            .map(|rack| rack.iter().map(Server::total_energy).sum::<Joules>())
            .sum()
    }
}

fn apply_events(room: &mut Room, step: u64) {
    if step == FAULT_STEP {
        room.inject_fan_fault(FAULT_RACK, FAULT_SERVER, FAULT)
            .unwrap();
    }
    if step == BLOCKED_STEP {
        room.set_tile_blockage(BLOCKED_RACK, 0.5).unwrap();
    }
}

fn run_room(room: &mut Room, steps: std::ops::Range<u64>) {
    let dt = SimDuration::from_secs(1);
    for step in steps {
        apply_events(room, step);
        room.apply_placement(&placement(room.racks(), step))
            .unwrap();
        room.step_placed(dt).unwrap();
    }
}

/// Asserts every server of `room` matches the reference bit for bit:
/// every thermal node, the energy, the fan speed and the ambient
/// boundary, and the room's IT energy and cold aisles.
fn assert_matches(room: &mut Room, reference: &Reference, what: &str) {
    for (r, rack) in reference.racks.iter().enumerate() {
        assert_eq!(
            room.cold_aisle_temperature(r).degrees().to_bits(),
            reference.air.cold_aisle_temperature(r).degrees().to_bits(),
            "{what}: rack {r} cold aisle"
        );
        for (i, want) in rack.iter().enumerate() {
            let got = room.server(r, i).unwrap();
            let bits = |s: &Server| -> Vec<u64> {
                s.thermal_state()
                    .temperatures()
                    .iter()
                    .map(|t| t.to_bits())
                    .collect()
            };
            assert_eq!(bits(got), bits(want), "{what}: rack {r} server {i} temps");
            assert_eq!(
                got.total_energy().value().to_bits(),
                want.total_energy().value().to_bits(),
                "{what}: rack {r} server {i} energy"
            );
            assert_eq!(
                got.actual_rpm(),
                want.actual_rpm(),
                "{what}: rack {r} server {i} fans"
            );
            assert_eq!(
                got.ambient().degrees().to_bits(),
                want.ambient().degrees().to_bits(),
                "{what}: rack {r} server {i} ambient"
            );
        }
    }
    assert_eq!(
        room.it_energy().value().to_bits(),
        reference.it_energy().value().to_bits(),
        "{what}: room IT energy"
    );
}

#[test]
fn room_matches_scalar_servers_on_their_cold_aisles() {
    let config = config();
    let dt = SimDuration::from_secs(1);
    let mut reference = Reference::new(&config);
    let mut live = Room::with_plan(config.clone(), ShardPlan::new(1)).unwrap();
    live.apply(&ControlAction::hold().with_fan_floor(Rpm::new(FAN_FLOOR)))
        .unwrap();

    run_room(&mut live, 0..CHECKPOINT_STEP);
    for step in 0..CHECKPOINT_STEP {
        reference.apply_events(step);
        reference.step(dt, step);
    }
    assert_matches(&mut live, &reference, "before the checkpoint");
    let snap = live.checkpoint();
    let at_checkpoint = reference.clone();

    run_room(&mut live, CHECKPOINT_STEP..STEPS);
    for step in CHECKPOINT_STEP..STEPS {
        reference.apply_events(step);
        reference.step(dt, step);
    }
    assert_matches(&mut live, &reference, "live run");
    let degraded = live.server(FAULT_RACK, FAULT_SERVER).unwrap();
    let hot = degraded.max_die_temperature();
    let healthy = live.server(FAULT_RACK, 0).unwrap().max_die_temperature();
    assert!(hot > healthy, "the degraded fan runs its server hotter");

    // Restored into the same room, every server reads back as the
    // checkpoint holds it — on the checkpoint's cold aisle, not the one
    // of the room's last step — and so does a checkpoint taken before
    // the next step, which resumes the tail bit for bit in a fresh room
    // on two workers.
    let plan = ShardPlan::new(2).with_min_lanes_per_shard(1);
    live.restore(&snap).unwrap();
    assert_matches(&mut live, &at_checkpoint, "restored in place");
    let again = live.checkpoint();
    let mut fresh = Room::with_plan(config.clone(), plan).unwrap();
    fresh.restore(&again).unwrap();
    assert_matches(&mut fresh, &at_checkpoint, "checkpoint of a restored room");
    run_room(&mut fresh, CHECKPOINT_STEP..STEPS);
    assert_matches(&mut fresh, &reference, "resumed from a restored room");
    run_room(&mut live, CHECKPOINT_STEP..STEPS);
    assert_matches(&mut live, &reference, "replayed in place");

    // Restored into a room on two workers, the tail replays bit for bit.
    let mut resumed = Room::with_plan(config, plan).unwrap();
    resumed.restore(&snap).unwrap();
    run_room(&mut resumed, CHECKPOINT_STEP..STEPS);
    assert_matches(&mut resumed, &reference, "restored on two workers");
}
