//! Resident dynamics lanes never change the physics: a fleet whose
//! groups step over packed temperatures and contiguous dynamics records
//! reproduces an identically seeded scalar `Server::step` loop bit for
//! bit — die temperatures, energies, peak power, fan speed changes,
//! failsafe activations, measured CPU temperatures, CSTH frame counts
//! and trace entries — through everything that moves state through the
//! lanes or makes their flows diverge: varying activity, inlet and step
//! size, fleet-wide fan commands inside and after the supply latency,
//! stuck and degraded fans, failsafe trips and releases, mid-run reads,
//! accounting resets and a checkpoint restored into a fresh fleet on
//! another plan.

use leakctl::fleet::Fleet;
use leakctl_platform::{FanFault, Server, ServerConfig};
use leakctl_thermal::ShardPlan;
use leakctl_units::{Celsius, Joules, Rpm, SimDuration, ThermalConductance, Utilization, Watts};
use proptest::prelude::*;

/// The SKUs in the mix: two-socket, one-socket, and two-socket with
/// weak heat-sink convection and a low failsafe threshold, so the
/// failsafe trips (and releases) within a short script — the last one
/// with thresholds low enough to trip at moderate load.
fn config(kind: usize) -> ServerConfig {
    let weak = |critical: f64, release: f64| ServerConfig {
        sink_conv_g_ref: ThermalConductance::new(2.6),
        critical_temp: Celsius::new(critical),
        failsafe_release_temp: Celsius::new(release),
        ..ServerConfig::default()
    };
    match kind % 4 {
        0 => ServerConfig::default(),
        1 => ServerConfig {
            sockets: 1,
            process_sigma: vec![1.0],
            ..ServerConfig::default()
        },
        2 => weak(60.0, 52.0),
        _ => weak(45.0, 42.0),
    }
}

/// The scalar reference: the same servers, stepped one by one.
struct Reference {
    servers: Vec<Server>,
}

impl Reference {
    fn new(configs: &[ServerConfig], seed: u64) -> Self {
        let servers = configs
            .iter()
            .enumerate()
            .map(|(i, c)| Server::new(c.clone(), seed.wrapping_add(i as u64)).unwrap())
            .collect();
        Self { servers }
    }

    fn step_with_inlet(&mut self, dt: SimDuration, activity: Utilization, inlet: Celsius) {
        for server in &mut self.servers {
            server.set_ambient(inlet).unwrap();
            server.step(dt, activity).unwrap();
        }
    }
}

/// Every observable of one server, bit for bit.
fn same_server(got: &Server, want: &Server, what: &str) -> Result<(), TestCaseError> {
    let bits = |c: Celsius| c.degrees().to_bits();
    let joules = |j: Joules| j.value().to_bits();
    let watts = |w: Watts| w.value().to_bits();
    prop_assert_eq!(got.now(), want.now(), "{}: clock", what);
    for socket in 0..got.config().sockets {
        prop_assert_eq!(
            bits(got.die_temperature(socket).unwrap()),
            bits(want.die_temperature(socket).unwrap()),
            "{}: die {}",
            what,
            socket
        );
        prop_assert_eq!(
            bits(got.air_temperature(socket).unwrap()),
            bits(want.air_temperature(socket).unwrap()),
            "{}: air {}",
            what,
            socket
        );
    }
    prop_assert_eq!(bits(got.ambient()), bits(want.ambient()), "{}: inlet", what);
    prop_assert_eq!(
        joules(got.system_energy()),
        joules(want.system_energy()),
        "{}: system energy",
        what
    );
    prop_assert_eq!(
        joules(got.fan_energy()),
        joules(want.fan_energy()),
        "{}: fan energy",
        what
    );
    prop_assert_eq!(
        watts(got.peak_power()),
        watts(want.peak_power()),
        "{}: peak power",
        what
    );
    prop_assert_eq!(
        watts(got.total_power()),
        watts(want.total_power()),
        "{}: power",
        what
    );
    prop_assert_eq!(
        got.accounted_time(),
        want.accounted_time(),
        "{}: accounted",
        what
    );
    prop_assert_eq!(
        got.fan_speed_changes(),
        want.fan_speed_changes(),
        "{}: speed changes",
        what
    );
    prop_assert_eq!(got.actual_rpm(), want.actual_rpm(), "{}: fan speed", what);
    prop_assert_eq!(
        got.commanded_rpm(),
        want.commanded_rpm(),
        "{}: fan command",
        what
    );
    prop_assert_eq!(got.fan_fault(), want.fan_fault(), "{}: fan fault", what);
    prop_assert_eq!(
        got.failsafe_activations(),
        want.failsafe_activations(),
        "{}: failsafe activations",
        what
    );
    prop_assert_eq!(
        got.measured_cpu_temps(),
        want.measured_cpu_temps(),
        "{}: measured",
        what
    );
    prop_assert_eq!(
        got.csth().frame_count(),
        want.csth().frame_count(),
        "{}: frames",
        what
    );
    prop_assert_eq!(
        got.trace().entries(),
        want.trace().entries(),
        "{}: trace",
        what
    );
    Ok(())
}

/// The whole fleet against the reference: fleet-level reads first
/// (they must not need a write-back), then every server.
fn same_fleet(fleet: &mut Fleet, reference: &Reference, what: &str) -> Result<(), TestCaseError> {
    let total_power: Watts = reference.servers.iter().map(Server::total_power).sum();
    let total_energy: Joules = reference.servers.iter().map(Server::total_energy).sum();
    prop_assert_eq!(
        fleet.total_power().value().to_bits(),
        total_power.value().to_bits(),
        "{}: fleet power",
        what
    );
    prop_assert_eq!(
        fleet.total_energy().value().to_bits(),
        total_energy.value().to_bits(),
        "{}: fleet energy",
        what
    );
    let mut view = Vec::new();
    fleet.die_temps_view(&mut view);
    for (i, want) in reference.servers.iter().enumerate() {
        prop_assert_eq!(
            view[i],
            want.max_die_temperature(),
            "{}: die view {}",
            what,
            i
        );
        prop_assert_eq!(
            fleet.fan_fault(i),
            Some(want.fan_fault()),
            "{}: fault {}",
            what,
            i
        );
    }
    for (i, want) in reference.servers.iter().enumerate() {
        same_server(
            fleet.server(i).unwrap(),
            want,
            &format!("{what}, server {i}"),
        )?;
    }
    Ok(())
}

const STEP_SIZES_MS: [u64; 6] = [0, 40, 1_000, 1_000, 5_000, 20_000];

fn rpm(x: f64) -> Rpm {
    Rpm::new(1_800.0 + 2_400.0 * x)
}

fn activity(x: f64) -> Utilization {
    Utilization::saturating_from_fraction(x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn resident_fleet_matches_scalar_server_loop(
        kinds in prop::collection::vec(0usize..4, 2..9),
        ops in prop::collection::vec((0usize..10, 0usize..64, 0.0..1.0f64, 0.0..1.0f64), 30..90),
        seed in 0u64..1_000,
    ) {
        let configs: Vec<ServerConfig> = kinds.iter().map(|&k| config(k)).collect();
        for threads in [1usize, 2, 4] {
            let plan = ShardPlan::new(threads).with_min_lanes_per_shard(1);
            let mut fleet = Fleet::with_plan(&configs, 0.002, seed, plan).unwrap();
            let mut reference = Reference::new(&configs, seed);
            for (n, &(op, pick, x, y)) in ops.iter().enumerate() {
                let i = pick % fleet.len();
                let what = format!("threads {threads}, op {n} ({op})");
                match op {
                    0..=4 => {
                        let dt = SimDuration::from_millis(STEP_SIZES_MS[pick % STEP_SIZES_MS.len()]);
                        let inlet = Celsius::new(18.0 + 14.0 * y);
                        fleet.step_with_inlet(dt, activity(x), inlet).unwrap();
                        reference.step_with_inlet(dt, activity(x), inlet);
                    }
                    // A fleet-wide command; the 40 ms steps above land
                    // later commands inside an earlier one's latency.
                    5 => {
                        fleet.command_all(rpm(x));
                        for server in &mut reference.servers {
                            server.command_fan_speed(rpm(x));
                        }
                    }
                    6 => {
                        let fault = match pick % 3 {
                            0 => FanFault::None,
                            1 => FanFault::Stuck,
                            _ => FanFault::Degraded { flow_scale: y },
                        };
                        fleet.inject_fan_fault(i, fault).unwrap();
                        reference.servers[i].inject_fan_fault(fault);
                    }
                    7 => same_server(fleet.server(i).unwrap(), &reference.servers[i], &what)?,
                    8 => {
                        let snap = fleet.checkpoint();
                        let other = ShardPlan::new(1 + pick % 4).with_min_lanes_per_shard(1);
                        fleet = Fleet::with_plan(&configs, 0.002, seed + 1, other).unwrap();
                        fleet.restore(&snap).unwrap();
                    }
                    _ => {
                        fleet.reset_accounting();
                        for server in &mut reference.servers {
                            server.reset_accounting();
                        }
                    }
                }
            }
            same_fleet(&mut fleet, &reference, &format!("threads {threads}, end"))?;
        }
    }
}

/// A fixed script that drives the weak SKU through a failsafe trip, a
/// fleet command the engaged failsafe overrides, and a release — all
/// while its group is resident — and still matches the scalar loop.
#[test]
fn failsafe_trip_and_release_on_resident_lanes_match_scalar() {
    let configs: Vec<ServerConfig> = [0, 2, 1, 2, 0, 2].iter().map(|&k| config(k)).collect();
    let plan = ShardPlan::new(2).with_min_lanes_per_shard(1);
    let mut fleet = Fleet::with_plan(&configs, 0.002, 5, plan).unwrap();
    let mut reference = Reference::new(&configs, 5);
    fleet.command_all(Rpm::new(1_800.0));
    for server in &mut reference.servers {
        server.command_fan_speed(Rpm::new(1_800.0));
    }
    let dt = SimDuration::from_secs(1);
    let run = |fleet: &mut Fleet, reference: &mut Reference, steps: u64, load: f64, inlet| {
        for _ in 0..steps {
            fleet
                .step_with_inlet(dt, activity(load), Celsius::new(inlet))
                .unwrap();
            reference.step_with_inlet(dt, activity(load), Celsius::new(inlet));
        }
    };
    run(&mut fleet, &mut reference, 900, 1.0, 24.0);
    fleet.command_all(Rpm::new(1_800.0));
    for server in &mut reference.servers {
        server.command_fan_speed(Rpm::new(1_800.0));
    }
    run(&mut fleet, &mut reference, 1_500, 0.0, 18.0);
    same_fleet(&mut fleet, &reference, "after trip and release").unwrap();

    let weak = fleet.server(1).unwrap();
    assert!(weak.failsafe_activations() >= 1, "the weak SKU must trip");
    let messages: Vec<&str> = weak
        .trace()
        .entries()
        .iter()
        .map(|e| e.message.as_str())
        .collect();
    assert!(messages
        .iter()
        .any(|m| m.contains("forcing maximum cooling")));
    assert!(messages
        .iter()
        .any(|m| m.contains("ignored: failsafe engaged")));
    assert!(messages.iter().any(|m| m.contains("failsafe released")));
}

/// Before any step, every server reads exactly as `Server::new` built
/// it — also in a mixed-SKU fleet whose configs differ in ambient, even
/// within one topology group, where no group inlet exists yet to
/// overwrite a server's own boundary.
#[test]
fn servers_read_before_the_first_step_are_as_built() {
    let warm = |kind| ServerConfig {
        ambient: Celsius::new(31.0),
        ..config(kind)
    };
    let configs = vec![config(0), warm(1), config(2), warm(1), warm(0)];
    for threads in [1usize, 2, 4] {
        let plan = ShardPlan::new(threads).with_min_lanes_per_shard(1);
        let mut fleet = Fleet::with_plan(&configs, 0.002, 9, plan).unwrap();
        let reference = Reference::new(&configs, 9);
        same_fleet(
            &mut fleet,
            &reference,
            &format!("threads {threads}, as built"),
        )
        .unwrap();
        assert_eq!(
            fleet.server(1).unwrap().ambient(),
            Celsius::new(31.0),
            "threads {threads}: the warm SKU keeps its own ambient"
        );
    }
}

/// 40 servers of one group, each with its own degraded-fan scale: every
/// step has 40 flow classes, more than the solver's factorization cache
/// retains across steps (32), so the cache grows to the step's class
/// count instead of evicting a class the step prepared. Once the fans
/// settle, every step finds all 40 classes cached and factors nothing,
/// and the fleet still matches the scalar loop bit for bit.
#[test]
fn more_flow_classes_than_the_factorization_cache_match_scalar() {
    let configs = vec![config(0); 40];
    let mut rng = leakctl::prelude::SimRng::seed(40);
    let scales: Vec<f64> = (0..configs.len())
        .map(|_| 0.3 + 0.7 * rng.next_f64())
        .collect();
    for threads in [1usize, 2, 4] {
        let plan = ShardPlan::new(threads).with_min_lanes_per_shard(1);
        let mut fleet = Fleet::with_plan(&configs, 0.002, 77, plan).unwrap();
        let mut reference = Reference::new(&configs, 77);
        fleet.command_all(Rpm::new(2_400.0));
        for server in &mut reference.servers {
            server.command_fan_speed(Rpm::new(2_400.0));
        }
        for (i, &flow_scale) in scales.iter().enumerate() {
            let fault = FanFault::Degraded { flow_scale };
            fleet.inject_fan_fault(i, fault).unwrap();
            reference.servers[i].inject_fan_fault(fault);
        }
        let dt = SimDuration::from_secs(1);
        let mut settled = 0;
        for step in 0..90 {
            if step == 60 {
                settled = fleet.factorizations();
            }
            let load = if step % 30 < 15 { 1.0 } else { 0.2 };
            let inlet = Celsius::new(22.0 + 0.05 * step as f64);
            fleet.step_with_inlet(dt, activity(load), inlet).unwrap();
            reference.step_with_inlet(dt, activity(load), inlet);
        }
        assert_eq!(
            fleet.batch_group_count(),
            configs.len(),
            "threads {threads}: one cached factorization per class"
        );
        assert_eq!(
            fleet.factorizations(),
            settled,
            "threads {threads}: settled steps factor nothing"
        );
        same_fleet(
            &mut fleet,
            &reference,
            &format!("threads {threads}, 40 classes"),
        )
        .unwrap();
    }
}

/// The per-step power terms a fleet carries between phases — each
/// die's leakage from one step's finish into the next begin, each
/// lane's fan power from begin into finish — reproduce the scalar loop
/// bit for bit through everything that could stale them: a new random
/// activity on every step (a carried leakage meets a new dynamic term),
/// a degraded fan that splits the flow classes, a hot inlet that trips
/// the weak SKU's failsafe and a cool one that releases it, and a
/// checkpoint restored mid-run into a fleet on another plan.
#[test]
fn carried_power_terms_match_scalar_through_faults_trips_and_restore() {
    let configs: Vec<ServerConfig> = [0, 2, 1, 2, 0, 0, 2].iter().map(|&k| config(k)).collect();
    let plan = ShardPlan::new(2).with_min_lanes_per_shard(1);
    let mut fleet = Fleet::with_plan(&configs, 0.002, 11, plan).unwrap();
    let mut reference = Reference::new(&configs, 11);
    fleet.command_all(Rpm::new(1_800.0));
    for server in &mut reference.servers {
        server.command_fan_speed(Rpm::new(1_800.0));
    }
    let mut rng = leakctl::prelude::SimRng::seed(27);
    let dt = SimDuration::from_secs(1);
    let mut run = |fleet: &mut Fleet, reference: &mut Reference, steps, (low, high), inlet| {
        for _ in 0..steps {
            let load = activity(low + (high - low) * rng.next_f64());
            let inlet = Celsius::new(inlet);
            fleet.step_with_inlet(dt, load, inlet).unwrap();
            reference.step_with_inlet(dt, load, inlet);
        }
    };
    run(&mut fleet, &mut reference, 120, (0.0, 1.0), 24.0);
    let fault = FanFault::Degraded { flow_scale: 0.55 };
    fleet.inject_fan_fault(4, fault).unwrap();
    reference.servers[4].inject_fan_fault(fault);
    run(&mut fleet, &mut reference, 300, (0.6, 1.0), 38.0);
    same_fleet(&mut fleet, &reference, "hot inlet, degraded fan").unwrap();
    let weak = fleet.server(1).unwrap();
    assert!(weak.failsafe_activations() >= 1, "the hot inlet must trip");

    let snap = fleet.checkpoint();
    let other = ShardPlan::new(3).with_min_lanes_per_shard(1);
    fleet = Fleet::with_plan(&configs, 0.002, 12, other).unwrap();
    fleet.restore(&snap).unwrap();
    run(&mut fleet, &mut reference, 60, (0.6, 1.0), 38.0);
    run(&mut fleet, &mut reference, 900, (0.0, 0.3), 18.0);
    same_fleet(&mut fleet, &reference, "restored, cooled").unwrap();
    let released = fleet
        .server(1)
        .unwrap()
        .trace()
        .entries()
        .iter()
        .any(|e| e.message.contains("failsafe released"));
    assert!(released, "the cool inlet must release the failsafe");
}
