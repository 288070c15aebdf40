//! The "shape" assertions: the qualitative results
//! the reproduction must preserve even though absolute watts differ
//! from the authors' testbed. This is the closest thing to an automated
//! referee for the reproduction.

use leakctl::prelude::*;
use leakctl::{build_lut_from_characterization, fig2a, fig2b, RunOptions};

struct Pipeline {
    data: leakctl::CharacterizationData,
    fitted: leakctl::FittedModels,
    lut: LookupTable,
}

fn pipeline() -> Pipeline {
    let data = characterize(&CharacterizeOptions::quick(), 42).expect("characterize");
    let fitted = fit_models(&data).expect("fit");
    let lut = build_lut_from_characterization(&data, &fitted).expect("LUT");
    Pipeline { data, fitted, lut }
}

/// (i) `P_leak + P_fan` is convex-like with an interior minimum that
/// sits below 75 °C (Fig. 2a), and the per-utilization optima all sit
/// at or below ≈70 °C (Fig. 2b).
#[test]
fn shape_convex_controllable_power() {
    let p = pipeline();
    let fig_a = fig2a(&p.data, &p.fitted).expect("fig2a");
    let points = &fig_a.groups[0].1;
    let costs: Vec<f64> = points.iter().map(|q| q.fan_plus_leak()).collect();
    let min_idx = costs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    assert!(
        min_idx != 0 && min_idx != costs.len() - 1,
        "interior minimum expected: {costs:?}"
    );
    let optimum = fig_a.optimum_of("100%").expect("optimum");
    assert!(
        optimum.temp_c < 75.0,
        "optimum at {:.1} C violates the operational cap",
        optimum.temp_c
    );
    assert!(
        (60.0..=74.0).contains(&optimum.temp_c),
        "optimum {:.1} C should sit near the paper's ~70 C",
        optimum.temp_c
    );

    let fig_b = fig2b(&p.data, &p.fitted).expect("fig2b");
    for (label, _) in &fig_b.groups {
        let opt = fig_b.optimum_of(label).expect("optimum per level");
        assert!(
            opt.temp_c <= 74.0,
            "{label}: optimum at {:.1} C above the paper's ≤ ~70 C claim",
            opt.temp_c
        );
    }
}

/// (ii) Energy ordering LUT ≤ Bang ≤ Default with LUT net savings in a
/// mid-single-digit to low-double-digit percent band.
#[test]
fn shape_energy_ordering_and_savings() {
    let p = pipeline();
    let run = RunOptions {
        record: false,
        ..RunOptions::default()
    };
    let idle = leakctl::measure_idle_power(&run.config, 42).expect("idle");

    let profile = leakctl_workload::suite::test2();
    let duration = leakctl_workload::suite::TEST_DURATION;

    let mut default = FixedSpeedController::paper_default();
    let e_default = leakctl::run_experiment(&run, profile.clone(), &mut default, 42)
        .expect("run")
        .metrics
        .total_energy;
    let mut bang = BangBangController::paper_default();
    let e_bang = leakctl::run_experiment(&run, profile.clone(), &mut bang, 42)
        .expect("run")
        .metrics
        .total_energy;
    let mut lutc = LutController::paper_default(p.lut.clone());
    let e_lut = leakctl::run_experiment(&run, profile, &mut lutc, 42)
        .expect("run")
        .metrics
        .total_energy;

    assert!(e_lut <= e_bang && e_bang <= e_default, "ordering violated");

    let idle_energy = idle * duration;
    let net_base = e_default - idle_energy;
    let savings = (net_base - (e_lut - idle_energy)).value() / net_base.value() * 100.0;
    assert!(
        (3.0..=15.0).contains(&savings),
        "LUT net savings {savings:.1}% outside the paper-like band"
    );
}

/// (iii) Peak power: the LUT cuts peak power relative to the default.
#[test]
fn shape_peak_power_reduction() {
    let p = pipeline();
    let run = RunOptions {
        record: false,
        ..RunOptions::default()
    };
    let profile = leakctl_workload::suite::test2();

    let mut default = FixedSpeedController::paper_default();
    let peak_default = leakctl::run_experiment(&run, profile.clone(), &mut default, 42)
        .expect("run")
        .metrics
        .peak_power;
    let mut lutc = LutController::paper_default(p.lut.clone());
    let peak_lut = leakctl::run_experiment(&run, profile, &mut lutc, 42)
        .expect("run")
        .metrics
        .peak_power;
    let cut = peak_default.value() - peak_lut.value();
    assert!(
        (2.0..=40.0).contains(&cut),
        "peak power cut {cut:.1} W outside the paper-like 5-30 W band"
    );
}

/// (iv) Thermal time constants shrink several-fold from 1800 to
/// 4200 RPM (Fig. 1a).
#[test]
fn shape_time_constant_spread() {
    let tau = |rpm: f64| -> f64 {
        let mut server = Server::new(ServerConfig::default(), 1).expect("server");
        server.command_fan_speed(Rpm::new(rpm));
        for _ in 0..900 {
            server
                .step(SimDuration::from_secs(1), Utilization::IDLE)
                .expect("step");
        }
        let t0 = server.max_die_temperature().degrees();
        let (targets, _) = server
            .steady_state_preview(Utilization::FULL, Rpm::new(rpm))
            .expect("preview");
        let t_inf = targets
            .iter()
            .map(|t| t.degrees())
            .fold(f64::NEG_INFINITY, f64::max);
        let threshold = t0 + 0.632 * (t_inf - t0);
        let mut secs = 0.0;
        while server.max_die_temperature().degrees() < threshold && secs < 3600.0 {
            server
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .expect("step");
            secs += 1.0;
        }
        secs
    };
    let slow = tau(1800.0);
    let fast = tau(4200.0);
    assert!(
        slow > 1.8 * fast,
        "τ(1800) = {slow}s vs τ(4200) = {fast}s: spread too small"
    );
}

/// (v) The fitted constants land near the paper's values — the plant is
/// calibrated to them, so the identification pipeline should recover
/// them through the noise.
#[test]
fn shape_fitted_constants_near_paper() {
    let p = pipeline();
    assert!(
        (p.fitted.k1 - leakctl::paper::K1).abs() < 0.12,
        "k1 = {:.4} vs paper {:.4}",
        p.fitted.k1,
        leakctl::paper::K1
    );
    assert!(
        (p.fitted.k3 - leakctl::paper::K3).abs() < 0.012,
        "k3 = {:.5} vs paper {:.5}",
        p.fitted.k3,
        leakctl::paper::K3
    );
    assert!(
        p.fitted.k2 > 0.05 && p.fitted.k2 < 2.0,
        "k2 = {:.4} implausible vs paper {:.4}",
        p.fitted.k2,
        leakctl::paper::K2
    );
    assert!(
        p.fitted.goodness.rmse < 8.0,
        "fit rmse {:.2} W too large (paper: 2.243 W)",
        p.fitted.goodness.rmse
    );
    assert!(p.fitted.goodness.accuracy_percent > 95.0);
}

/// The LUT keeps operating temperature at or below the paper's 75 °C
/// target on every suite workload.
#[test]
fn shape_lut_temperature_cap() {
    let p = pipeline();
    let run = RunOptions {
        record: false,
        ..RunOptions::default()
    };
    for (name, profile) in leakctl_workload::suite::all(42) {
        let mut ctl = LutController::paper_default(p.lut.clone());
        let m = leakctl::run_experiment(&run, profile, &mut ctl, 42)
            .expect("run")
            .metrics;
        assert!(
            m.max_temp.degrees() <= 76.0,
            "{name}: LUT max temp {:.1} C above the 75 C target",
            m.max_temp.degrees()
        );
    }
}
