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
use leakctl_bench::perf::{best_of, render_json, GateArgs, PerfResult};
use leakctl_bench::SteppingKernel;
use leakctl_control::FixedSpeedController;
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
/// zero allocation per step.
fn bench_network_cached(steps: u64) -> PerfResult {
    let mut kernel = SteppingKernel::new();
    let start = Instant::now();
    kernel.step_cached(steps);
    let wall_s = start.elapsed().as_secs_f64();
    PerfResult {
        name: "network_step_cached",
        steps,
        wall_s,
        extra: vec![(
            "max_temp_c",
            format!("{:.6}", kernel.max_temperature().degrees()),
        )],
    }
}

/// Steps/sec of the raw `Server::step` hot path at constant inputs —
/// the regime where factorization reuse pays off.
fn bench_server_step(steps: u64) -> PerfResult {
    let mut server = Server::new(ServerConfig::default(), 1).expect("server builds");
    // Warm up: let fans settle so flows stop changing step-to-step.
    for _ in 0..120 {
        server
            .step(SimDuration::from_secs(1), Utilization::FULL)
            .expect("warmup step succeeds");
    }
    let start = Instant::now();
    for _ in 0..steps {
        server
            .step(SimDuration::from_secs(1), Utilization::FULL)
            .expect("step succeeds");
    }
    let wall_s = start.elapsed().as_secs_f64();
    PerfResult {
        name: "server_step_1s_constant",
        steps,
        wall_s,
        extra: vec![(
            "max_die_temp_c",
            format!("{:.6}", server.max_die_temperature().degrees()),
        )],
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
/// refill). One untimed block first allocates every bank's buffer.
fn bench_sensor_refill(blocks: u64) -> PerfResult {
    const BANKS: usize = 512;
    const BLOCK: usize = 16;
    const NOISY: u64 = 71;
    let mut rng = SimRng::seed(42);
    let mut banks: Vec<SensorBank> = (0..BANKS).map(|_| server_shaped_bank(&mut rng)).collect();
    let truth: Vec<f64> = (0..73).map(|c| 40.0 + f64::from(c)).collect();
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
    let draws = blocks * BANKS as u64 * NOISY * BLOCK as u64;
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
/// snapshotted.
fn bench_fleet_checkpoint(fleet: &mut Fleet, checkpoints: u64) -> PerfResult {
    let frames = fleet.server(0).expect("server 0").csth().frame_count();
    let mut kept = fleet.checkpoint();
    let mut servers = 0;
    let start = Instant::now();
    for _ in 0..checkpoints {
        servers += kept.len() as u64;
        kept = fleet.checkpoint();
    }
    let wall_s = start.elapsed().as_secs_f64();
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

/// One full 80-minute Table-I-protocol run (Default controller on
/// Test-3) — the paper's headline workload and the acceptance metric
/// for stepping-engine optimizations. Energy is reported to 1e-12 kWh
/// so perf PRs can prove the physics is untouched.
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
    let mut controller = FixedSpeedController::paper_default();
    let start = Instant::now();
    let outcome =
        leakctl::run_experiment(&options, profile, &mut controller, 42).expect("run succeeds");
    let wall_s = start.elapsed().as_secs_f64();
    PerfResult {
        name: if quick {
            "run10min_default_constant"
        } else {
            "run80min_default_test3"
        },
        steps,
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
