//! Ablation benches for the model's design choices:
//!
//! - **Solver** — backward-Euler step size for the thermal network
//!   (accuracy report + timing),
//! - **Rate limit** — the LUT's 1-minute change lockout versus
//!   alternatives (fan-change count / energy report + timing),
//! - **LUT resolution** — number of utilization bins,
//! - **Poll period** — 1-second utilization polling versus CSTH-rate,
//! - **Bang-bang band** — the paper's 65–75 °C band versus narrower and
//!   wider bands.
//!
//! Each ablation prints its findings once (so bench logs double as
//! ablation tables) and then times the representative configuration.
//!
//! Run with `cargo bench -p leakctl-bench --bench ablations`.

use criterion::{criterion_group, criterion_main, Criterion};
use leakctl::prelude::*;
use leakctl::{RunMetrics, RunOptions};
use leakctl_control::{BangBangController, LutController};
use leakctl_thermal::{Coupling, ThermalNetworkBuilder, TransientSolver};
use leakctl_units::{Celsius, ThermalCapacitance, ThermalConductance, Watts};
use leakctl_workload::suite;

fn run_test3(controller: &mut dyn FanController, seed: u64) -> RunMetrics {
    let options = RunOptions {
        record: false,
        ..RunOptions::default()
    };
    leakctl::run_experiment(&options, suite::test3(), controller, seed)
        .expect("run succeeds")
        .metrics
}

/// Single-RC reference problem with a 100-second time constant.
fn reference_network() -> (leakctl_thermal::ThermalNetwork, leakctl_thermal::NodeId) {
    let mut b = ThermalNetworkBuilder::new();
    let die = b.add_node("die", ThermalCapacitance::new(200.0));
    let amb = b.add_boundary("amb", Celsius::new(24.0));
    b.connect(
        die,
        amb,
        Coupling::Conductance(ThermalConductance::new(2.0)),
    )
    .expect("static network");
    let mut net = b.build().expect("static network");
    net.set_power(die, Watts::new(100.0)).expect("valid node");
    (net, die)
}

fn ablate_solver(c: &mut Criterion) {
    // Backward-Euler accuracy after 300 s versus the analytic solution,
    // across step sizes up to a tenth of the time constant.
    let analytic = 74.0 + (24.0 - 74.0) * (-3.0f64).exp();
    eprintln!("[ablate_solver] backward-Euler error vs analytic after 300 s:");
    for dt_ms in [100, 500, 1_000, 5_000, 10_000] {
        let (net, die) = reference_network();
        let mut st = net.uniform_state(Celsius::new(24.0));
        TransientSolver::new(&net)
            .run(
                &net,
                &mut st,
                SimDuration::from_secs(300),
                SimDuration::from_millis(dt_ms),
            )
            .expect("integration succeeds");
        let err = (net.temperature(&st, die).degrees() - analytic).abs();
        eprintln!("  dt = {dt_ms:>6} ms: |err| = {err:.2e} K");
    }

    let mut group = c.benchmark_group("ablate_solver");
    group.bench_function("BackwardEuler_300steps", |b| {
        let (net, _) = reference_network();
        b.iter(|| {
            let mut st = net.uniform_state(Celsius::new(24.0));
            TransientSolver::new(&net)
                .run(
                    &net,
                    &mut st,
                    SimDuration::from_secs(300),
                    SimDuration::from_secs(1),
                )
                .expect("integration succeeds");
            st
        })
    });
    group.finish();
}

/// A finer-than-paper table (four speed levels) used to study rate
/// limiting under a noisy workload: the stochastic Test-4 utilization
/// wanders across the 50 % breakpoint, so an unlimited controller flaps.
fn fine_lut() -> LookupTable {
    LookupTable::new(vec![
        (
            Utilization::from_percent(10.0).expect("valid"),
            Rpm::new(1800.0),
        ),
        (
            Utilization::from_percent(30.0).expect("valid"),
            Rpm::new(2000.0),
        ),
        (
            Utilization::from_percent(50.0).expect("valid"),
            Rpm::new(2200.0),
        ),
        (
            Utilization::from_percent(100.0).expect("valid"),
            Rpm::new(2400.0),
        ),
    ])
    .expect("static table valid")
}

fn run_profile(
    controller: &mut dyn FanController,
    profile: leakctl_workload::Profile,
    seed: u64,
) -> RunMetrics {
    let options = RunOptions {
        record: false,
        ..RunOptions::default()
    };
    leakctl::run_experiment(&options, profile, controller, seed)
        .expect("run succeeds")
        .metrics
}

fn ablate_rate_limit(c: &mut Criterion) {
    // Test-4's queueing noise crosses the fine table's 50 % breakpoint
    // repeatedly — exactly the "unstable workload" case the paper's
    // 1-minute lockout exists for.
    let (profile, _) = suite::test4(42);
    eprintln!("[ablate_rate_limit] fine LUT on Test-4 with varying change lockout:");
    for secs in [0u64, 30, 60, 300] {
        let mut ctl = LutController::new(fine_lut(), SimDuration::from_secs(secs));
        let m = run_profile(&mut ctl, profile.clone(), 42);
        eprintln!(
            "  {secs:>3} s: {:.4} kWh, {:>3} changes, max {:.1} C",
            m.total_energy.as_kwh().value(),
            m.fan_changes,
            m.max_temp.degrees()
        );
    }
    let mut group = c.benchmark_group("ablate_rate_limit");
    group.sample_size(10);
    group.bench_function("fine_lut_60s_lockout_test4", |b| {
        let mut ctl = LutController::paper_default(fine_lut());
        b.iter(|| run_profile(&mut ctl, profile.clone(), 42))
    });
    group.finish();
}

fn ablate_lut_resolution(c: &mut Criterion) {
    eprintln!("[ablate_lut_resolution] table granularity on Test-3:");
    let single =
        LookupTable::new(vec![(Utilization::FULL, Rpm::new(2400.0))]).expect("valid table");
    let paper_like = LookupTable::new(vec![
        (
            Utilization::from_percent(10.0).expect("valid"),
            Rpm::new(1800.0),
        ),
        (Utilization::FULL, Rpm::new(2400.0)),
    ])
    .expect("valid table");
    for (name, table) in [
        ("1 bin (fixed 2400)", single),
        ("2 bins (paper pipeline)", paper_like),
        ("4 bins (fine)", fine_lut()),
    ] {
        let mut ctl = LutController::paper_default(table);
        let m = run_test3(&mut ctl, 42);
        eprintln!(
            "  {name:>24}: {:.4} kWh, {:>2} changes, avg {:.0} RPM, max {:.1} C",
            m.total_energy.as_kwh().value(),
            m.fan_changes,
            m.avg_rpm.value(),
            m.max_temp.degrees()
        );
    }
    let mut group = c.benchmark_group("ablate_lut_resolution");
    group.sample_size(10);
    group.bench_function("fine_lut_test3", |b| {
        let mut ctl = LutController::paper_default(fine_lut());
        b.iter(|| run_test3(&mut ctl, 42))
    });
    group.finish();
}

fn ablate_poll_period(c: &mut Criterion) {
    // A LUT variant polled at CSTH rate instead of every second.
    struct SlowLut(LutController);
    impl FanController for SlowLut {
        fn name(&self) -> &str {
            "LUT-10s"
        }
        fn poll_period(&self) -> SimDuration {
            SimDuration::from_secs(10)
        }
        fn decide(&mut self, inputs: &leakctl_control::ControlInputs) -> Option<Rpm> {
            self.0.decide(inputs)
        }
        fn reset(&mut self) {
            self.0.reset();
        }
    }
    // Test-2's sudden high/low swings are where reaction latency shows.
    let profile = suite::test2();
    let mut fast = LutController::paper_default(fine_lut());
    let m_fast = run_profile(&mut fast, profile.clone(), 42);
    let mut slow = SlowLut(LutController::paper_default(fine_lut()));
    let m_slow = run_profile(&mut slow, profile.clone(), 42);
    eprintln!(
        "[ablate_poll_period] Test-2, 1 s poll: {:.4} kWh max {:.1} C, {} changes | \
         10 s poll: {:.4} kWh max {:.1} C, {} changes",
        m_fast.total_energy.as_kwh().value(),
        m_fast.max_temp.degrees(),
        m_fast.fan_changes,
        m_slow.total_energy.as_kwh().value(),
        m_slow.max_temp.degrees(),
        m_slow.fan_changes
    );
    let mut group = c.benchmark_group("ablate_poll_period");
    group.sample_size(10);
    group.bench_function("poll_10s_test2", |b| {
        let mut ctl = SlowLut(LutController::paper_default(fine_lut()));
        b.iter(|| run_profile(&mut ctl, profile.clone(), 42))
    });
    group.finish();
}

fn ablate_band(c: &mut Criterion) {
    eprintln!("[ablate_band] bang-bang comfort band on Test-3:");
    for (lo, hi) in [(60.0, 75.0), (65.0, 75.0), (70.0, 75.0)] {
        let mut ctl = BangBangController::with_band(Celsius::new(lo), Celsius::new(hi));
        let m = run_test3(&mut ctl, 42);
        eprintln!(
            "  {lo:.0}-{hi:.0} C: {:.4} kWh, {} changes, max {:.1} C",
            m.total_energy.as_kwh().value(),
            m.fan_changes,
            m.max_temp.degrees()
        );
    }
    let mut group = c.benchmark_group("ablate_band");
    group.sample_size(10);
    group.bench_function("paper_band_test3", |b| {
        let mut ctl = BangBangController::paper_default();
        b.iter(|| run_test3(&mut ctl, 42))
    });
    group.finish();
}

criterion_group!(
    benches,
    ablate_solver,
    ablate_rate_limit,
    ablate_lut_resolution,
    ablate_poll_period,
    ablate_band
);
criterion_main!(benches);
