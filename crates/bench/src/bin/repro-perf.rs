//! Perf report: machine-readable steps-per-second measurements for the
//! transient-stepping hot path, emitted as JSON (`BENCH_perf.json`).
//!
//! This is the repo's perf trajectory: CI runs it on every PR (followed
//! by `repro-rack`, which merges the rack-scale batching measurements
//! into the same file), uploads the JSON as an artifact, and gates the
//! job with `repro-perf-diff` against the previous artifact. The energy
//! figures are included so a perf change that silently alters physics
//! is caught by diffing consecutive reports.
//!
//! ```text
//! cargo run --release -p leakctl-bench --bin repro-perf [-- --quick] [--out PATH]
//! ```

use std::time::Instant;

use leakctl::fleet::Fleet;
use leakctl::prelude::*;
use leakctl::RunOptions;
use leakctl_bench::perf::{best_of, render_json, timed_rounds, GateArgs, PerfResult};
use leakctl_bench::SteppingKernel;
use leakctl_control::FixedSpeedController;
use leakctl_thermal::{BatchSolver, PackedLanes, RackSpan, ShardPlan, ThermalState};
use leakctl_workload::suite;

/// Steps/sec of the raw thermal-network stepping kernel at constant
/// inputs with a throwaway `TransientSolver` per step, which
/// reassembles and refactors every call.
fn bench_network_stateless(steps: u64) -> PerfResult {
    let mut kernel = SteppingKernel::new();
    let start = Instant::now();
    kernel.step_stateless(steps);
    let wall_s = start.elapsed().as_secs_f64();
    PerfResult {
        name: "network_step_stateless",
        steps,
        wall_s,
        extra: vec![(
            "max_temp_c",
            format!("{:.6}", kernel.max_temperature().degrees()),
        )],
    }
}

/// Steps/sec of the same kernel through a persistent
/// `TransientSolver` — cached assembly, reused LU factorization,
/// zero allocation per step. Each round steps a fresh kernel `steps`
/// times, repeated until `MIN_TIMED_S` is timed, so every round ends
/// on the same temperature.
fn bench_network_cached(steps: u64) -> PerfResult {
    let (rounds, wall_s, kernel) = timed_rounds(|| {
        let mut kernel = SteppingKernel::new();
        let start = Instant::now();
        kernel.step_cached(steps);
        (start.elapsed().as_secs_f64(), kernel)
    });
    PerfResult {
        name: "network_step_cached",
        steps: rounds * steps,
        wall_s,
        extra: vec![(
            "max_temp_c",
            format!("{:.6}", kernel.max_temperature().degrees()),
        )],
    }
}

/// Steps/sec of the raw `Server::step` hot path at constant inputs —
/// the regime where factorization reuse pays off. Each round steps a
/// copy of the same warmed-up server `steps` times, so every round
/// ends on the same temperatures.
fn bench_server_step(steps: u64) -> PerfResult {
    let mut warm = Server::new(ServerConfig::default(), 1).expect("server builds");
    // Warm up: let fans settle so flows stop changing step-to-step.
    for _ in 0..120 {
        warm.step(SimDuration::from_secs(1), Utilization::FULL)
            .expect("warmup step succeeds");
    }
    let (rounds, wall_s, server) = timed_rounds(|| {
        let mut server = warm.clone();
        let start = Instant::now();
        for _ in 0..steps {
            server
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .expect("step succeeds");
        }
        (start.elapsed().as_secs_f64(), server)
    });
    PerfResult {
        name: "server_step_1s_constant",
        steps: rounds * steps,
        wall_s,
        extra: vec![(
            "max_die_temp_c",
            format!("{:.6}", server.max_die_temperature().degrees()),
        )],
    }
}

/// The phases of a fleet step, timed apart: 48 default servers at 60 %
/// load and 3000 rpm stepped by hand as one tile of a lane store steps —
/// [`DynamicsLanes::begin`], the [`SharedKernel`] solve over the packed
/// temperatures (template flow, cached prepare, the rack's
/// boundary-source column, block step),
/// [`DynamicsLanes::finish`], and the CSTH polls that fall due. `steps`
/// counts server-steps; each phase reports its ns per server-step.
///
/// [`SharedKernel`]: leakctl_thermal::SharedKernel
fn bench_lane_phases(steps: u64) -> PerfResult {
    const LANES: usize = 48;
    let mut servers: Vec<Server> = (0..LANES)
        .map(|i| Server::new(ServerConfig::default(), i as u64).expect("server builds"))
        .collect();
    let states: Vec<ThermalState> = servers.iter().map(|s| s.thermal_state().clone()).collect();
    let mut temps = PackedLanes::pack(&states);
    let mut dynamics = DynamicsLanes::load(&servers);
    let mut template = LaneTemplate::of(&servers[0]);
    let mut solver = BatchSolver::new(servers[0].thermal_network());
    let inlet = [servers[0].ambient()];
    let mut bound = Vec::new();
    let one_rack = [RackSpan {
        lanes: 0..LANES,
        rack: 0,
    }];
    let dt = SimDuration::from_secs(1);
    let load = Utilization::from_percent(60.0).expect("valid load");
    dynamics.command_all(Rpm::new(3000.0), &mut servers);
    let mut timed = [0.0; 4];
    let group_steps = steps / LANES as u64;
    // 120 untimed steps first let the fans settle at the command.
    for step in 0..120 + group_steps {
        let clock = Instant::now();
        let flow = dynamics
            .begin(&temps, dt, &one_rack, &[load])
            .expect("identical lanes share one flow");
        let begun = Instant::now();
        template.set_flow(flow).expect("template flow");
        solver.begin_step();
        let prepared = solver
            .prepare(template.network(), dt)
            .expect("shared factorization");
        template.boundary_sources_into(&inlet, &mut bound);
        let kernel = solver.kernel(&prepared, &bound, template.network());
        kernel
            .step_racks(&mut temps, dynamics.sources(), &one_rack)
            .expect("step succeeds");
        let solved = Instant::now();
        let poll_due = dynamics.finish(&temps, dt);
        let finished = Instant::now();
        if poll_due {
            dynamics.poll(&temps, &mut servers).expect("poll succeeds");
        }
        if step >= 120 {
            let polled = Instant::now();
            for (t, (a, b)) in timed.iter_mut().zip([
                (clock, begun),
                (begun, solved),
                (solved, finished),
                (finished, polled),
            ]) {
                *t += (b - a).as_secs_f64();
            }
        }
    }
    let server_steps = group_steps * LANES as u64;
    let ns = |s: f64| format!("{:.1}", s * 1e9 / server_steps as f64);
    PerfResult {
        name: "fleet48_lane_phases",
        steps: server_steps,
        wall_s: timed.iter().sum(),
        extra: vec![
            ("begin_ns", ns(timed[0])),
            ("solve_ns", ns(timed[1])),
            ("finish_ns", ns(timed[2])),
            ("poll_ns", ns(timed[3])),
            (
                "max_die_temp_c",
                format!("{:.6}", dynamics.max_die_temperature(&temps, 0).degrees()),
            ),
        ],
    }
}

/// A sensor bank shaped like a default server's CSTH poll: 4 CPU
/// diodes, 32 DIMM sensors, 32 core currents, 2 ideal voltages and 3
/// power/fan channels — 73 channels, 71 of them noisy.
fn server_shaped_bank(rng: &mut SimRng) -> SensorBank {
    let noisy = |noise_sigma, quantization| SensorSpec {
        noise_sigma,
        quantization,
        ..SensorSpec::ideal()
    };
    let mut specs = vec![SensorSpec::cpu_thermal_diode(); 4];
    specs.extend([SensorSpec::dimm_thermal(); 32]);
    specs.extend([noisy(0.02, 0.001); 32]);
    specs.extend([SensorSpec::ideal(); 2]);
    specs.extend([
        SensorSpec::system_power_meter(),
        noisy(0.2, 0.1),
        noisy(3.0, 1.0),
    ]);
    let mut bank = SensorBank::new();
    for (c, spec) in specs.into_iter().enumerate() {
        bank.push(spec, rng.fork(&format!("ch{c}")));
    }
    bank
}

/// Gaussian draws/sec of CSTH sensor-noise refills over 512
/// server-shaped banks. A bank refills every 16th frame, so each block
/// times the refilling frame of every bank and steps the other 15
/// frames untimed; `steps` counts the draws (71 channels × 16 per
/// refill). Each round builds the banks afresh from one seed, steps one
/// untimed block to allocate every bank's buffer, then times `blocks`
/// blocks; rounds repeat until `MIN_TIMED_S` is timed, and every
/// round sums to the same checksum.
fn bench_sensor_refill(blocks: u64) -> PerfResult {
    const BANKS: usize = 512;
    const BLOCK: usize = 16;
    const NOISY: u64 = 71;
    let truth: Vec<f64> = (0..73).map(|c| 40.0 + f64::from(c)).collect();
    let (rounds, wall_s, checksum) = timed_rounds(|| {
        let mut rng = SimRng::seed(42);
        let mut banks: Vec<SensorBank> = (0..BANKS).map(|_| server_shaped_bank(&mut rng)).collect();
        let mut frame = vec![0.0; truth.len()];
        let mut frames = |banks: &mut [SensorBank], count: usize| {
            for bank in banks {
                for _ in 0..count {
                    bank.measure_frame(&truth, &mut frame);
                }
            }
            frame.iter().sum::<f64>()
        };
        frames(&mut banks, BLOCK);
        let mut wall_s = 0.0;
        let mut checksum = 0.0;
        for _ in 0..blocks {
            let start = Instant::now();
            checksum += frames(&mut banks, 1);
            wall_s += start.elapsed().as_secs_f64();
            frames(&mut banks, BLOCK - 1);
        }
        (wall_s, checksum)
    });
    let draws = rounds * blocks * BANKS as u64 * NOISY * BLOCK as u64;
    PerfResult {
        name: "sensor_refill",
        steps: draws,
        wall_s,
        extra: vec![
            ("ns_per_draw", format!("{:.2}", wall_s * 1e9 / draws as f64)),
            ("checksum", format!("{checksum:.6}")),
        ],
    }
}

/// A 128-server fleet (as in `repro-rack`) after 2400 simulated seconds
/// at full load: 241 CSTH frames per server.
fn fleet_with_history() -> Fleet {
    let mut fleet = Fleet::new(ServerConfig::default(), 128, 0.0002, 42).expect("fleet builds");
    for _ in 0..2_400 {
        fleet
            .step(SimDuration::from_secs(1), Utilization::FULL)
            .expect("fleet step succeeds");
    }
    fleet
}

/// Server snapshots/sec of `Fleet::checkpoint` on a fleet with
/// history. Each checkpoint replaces and drops the previous one, as a
/// building run's periodic checkpoint does; `steps` counts servers
/// snapshotted. Rounds of `checkpoints` checkpoints repeat until
/// `MIN_TIMED_S` is timed.
fn bench_fleet_checkpoint(fleet: &mut Fleet, checkpoints: u64) -> PerfResult {
    let frames = fleet.server(0).expect("server 0").csth().frame_count();
    let mut kept = fleet.checkpoint();
    let (rounds, wall_s, round_servers) = timed_rounds(|| {
        let mut servers = 0;
        let start = Instant::now();
        for _ in 0..checkpoints {
            servers += kept.len() as u64;
            kept = fleet.checkpoint();
        }
        (start.elapsed().as_secs_f64(), servers)
    });
    let servers = rounds * round_servers;
    PerfResult {
        name: "fleet_checkpoint",
        steps: servers,
        wall_s,
        extra: vec![
            (
                "us_per_server",
                format!("{:.2}", wall_s * 1e6 / servers as f64),
            ),
            ("csth_frames", frames.to_string()),
        ],
    }
}

/// ns per server-step of a whole room on the `mpc-wide` floor — 16 ×
/// 16 racks of 2 default servers, one lane store — at 60 % load with
/// fans at 3000 rpm on one worker, through the public `Room` API. Each
/// round builds the room, lets the fans settle over 120 untimed steps
/// and times `steps` room steps; rounds repeat until `MIN_TIMED_S`
/// is timed, and every round ends on the same die temperature.
fn bench_room_step(steps: u64) -> PerfResult {
    let dt = SimDuration::from_secs(1);
    let load = Utilization::from_percent(60.0).expect("valid load");
    let (rounds, wall_s, room) = timed_rounds(|| {
        let mut room =
            Room::with_plan(RoomConfig::new(16, 16, 2), ShardPlan::new(1)).expect("room builds");
        room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(3000.0)))
            .expect("fan floor applies");
        for _ in 0..120 {
            room.step(dt, load).expect("warm-up step succeeds");
        }
        let start = Instant::now();
        for _ in 0..steps {
            room.step(dt, load).expect("room step succeeds");
        }
        (start.elapsed().as_secs_f64(), room)
    });
    let server_steps = rounds * steps * room.servers() as u64;
    PerfResult {
        name: "room16x16x2_step",
        steps: server_steps,
        wall_s,
        extra: vec![
            (
                "ns_per_server_step",
                format!("{:.1}", wall_s * 1e9 / server_steps as f64),
            ),
            (
                "max_die_temp_c",
                format!("{:.6}", room.max_die_temperature().degrees()),
            ),
        ],
    }
}

/// One full 80-minute Table-I-protocol run (Default controller on
/// Test-3) — the paper's headline workload and the acceptance metric
/// for stepping-engine optimizations — repeated until
/// `MIN_TIMED_S` is timed (every run is the same seeded run). Energy
/// is reported to 1e-12 kWh so perf PRs can prove the physics is
/// untouched.
fn bench_run80min(quick: bool) -> PerfResult {
    let options = RunOptions {
        record: false,
        ..RunOptions::default()
    };
    let profile = if quick {
        Profile::constant(Utilization::FULL, SimDuration::from_mins(10)).expect("static profile")
    } else {
        suite::test3()
    };
    let sim_secs = (options.warmup + options.stabilize + options.cooldown).as_secs_f64()
        + profile.duration().as_secs_f64();
    let steps = (sim_secs / options.step.as_secs_f64()).round() as u64;
    let (rounds, wall_s, outcome) = timed_rounds(|| {
        let profile = profile.clone();
        let mut controller = FixedSpeedController::paper_default();
        let start = Instant::now();
        let outcome =
            leakctl::run_experiment(&options, profile, &mut controller, 42).expect("run succeeds");
        (start.elapsed().as_secs_f64(), outcome)
    });
    PerfResult {
        name: if quick {
            "run10min_default_constant"
        } else {
            "run80min_default_test3"
        },
        steps: rounds * steps,
        wall_s,
        extra: vec![
            (
                "total_energy_kwh",
                format!("{:.12}", outcome.metrics.total_energy.as_kwh().value()),
            ),
            (
                "fan_energy_kwh",
                format!("{:.12}", outcome.metrics.fan_energy.as_kwh().value()),
            ),
            (
                "peak_power_w",
                format!("{:.6}", outcome.metrics.peak_power.value()),
            ),
            (
                "max_temp_c",
                format!("{:.6}", outcome.metrics.max_temp.degrees()),
            ),
        ],
    }
}

fn main() {
    let GateArgs { quick, out } = GateArgs::from_env(env!("CARGO_BIN_NAME"));
    println!("== leakctl perf report ==");
    let step_count = if quick { 2_000 } else { 20_000 };
    let reps = if quick { 2 } else { 5 };
    let mut fleet = fleet_with_history();
    let results = vec![
        best_of(reps, || bench_network_stateless(10 * step_count)),
        best_of(reps, || bench_network_cached(10 * step_count)),
        best_of(reps, || bench_server_step(step_count)),
        best_of(reps, || bench_run80min(quick)),
        best_of(reps, || bench_sensor_refill(step_count / 2_000)),
        best_of(reps, || {
            bench_fleet_checkpoint(&mut fleet, step_count / 400)
        }),
        best_of(reps, || bench_lane_phases(48 * step_count)),
        best_of(reps, || bench_room_step(step_count / 10)),
    ];
    for r in &results {
        println!(
            "{:<28} {:>9} steps in {:>8.3} s -> {:>12.0} steps/s",
            r.name,
            r.steps,
            r.wall_s,
            r.steps_per_sec()
        );
        for (k, v) in &r.extra {
            println!("    {k} = {v}");
        }
    }

    let json = render_json(&results, quick);
    std::fs::write(&out, &json).expect("perf JSON written");
    println!("\nwrote {out}:\n{json}");
}
