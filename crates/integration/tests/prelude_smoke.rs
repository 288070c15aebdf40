//! Workspace smoke test: the public entry points of every crate resolve
//! from a downstream consumer.
//!
//! This exists to catch manifest and feature regressions — a dropped
//! re-export, a crate renamed out from under its dependents, a dependency
//! edge removed from a `Cargo.toml` — at `cargo test` time rather than
//! when some later PR happens to touch the symbol. The `use` lists mirror
//! each crate's root re-exports; the function bodies do just enough
//! construction to force linkage.

#![allow(clippy::float_cmp)]

use leakctl::prelude::*;

#[allow(unused_imports)]
mod resolves {
    //! Pure-resolution checks: each crate root's public surface imports.

    pub use leakctl::prelude::*;
    pub use leakctl::{fig1a, fig3, generate_table1, run_experiment, RunMetrics, Table1};
    pub use leakctl_control::{
        build_lut, BangBangController, ControlInputs, FanController, FixedSpeedController,
        LookupTable, LutController, PidController, RateLimiter,
    };
    pub use leakctl_platform::{
        CpuSocket, DimmBank, FanBank, PlatformError, Server, ServerConfig, ServiceProcessor,
    };
    pub use leakctl_power::{
        ActivePowerModel, EmpiricalLeakage, FanPowerModel, PhysicalLeakage, PsuModel,
        ServerPowerModel,
    };
    pub use leakctl_sim::{Clock, EventQueue, Periodic, SimRng, TraceRecorder};
    pub use leakctl_telemetry::{ChannelId, Csth, SensorBank, SensorSpec, SeriesView, TimeSeries};
    pub use leakctl_thermal::{ConvectionModel, ThermalError};
    pub use leakctl_units::{
        AirFlow, Amps, Celsius, Joules, Kelvin, KilowattHours, QuantityError, Rpm, SimDuration,
        SimInstant, TempDelta, ThermalCapacitance, ThermalConductance, ThermalResistance,
        Utilization, Volts, Watts,
    };
    pub use leakctl_workload::{suite, LoadGen, MmcQueue, Profile, ProfileBuilder, PwmConfig};
}

#[test]
fn units_construct_and_convert() {
    let p = Watts::new(400.0);
    let e = p * SimDuration::from_mins(30);
    assert!(e.as_kwh().value() > 0.0);
    assert!(Celsius::new(70.0).as_kelvin().kelvin() > 343.0);
    let u = Utilization::from_percent(75.0).expect("valid utilization");
    assert!(u.as_fraction() > 0.7);
}

#[test]
fn sim_rng_links() {
    let mut rng = leakctl_sim::SimRng::seed(42);
    let x = rng.next_f64();
    assert!((0.0..1.0).contains(&x));
}

#[test]
fn power_model_links() {
    let model = leakctl_power::ServerPowerModel::paper_fit();
    let p = model.total(
        Utilization::from_percent(100.0).expect("valid"),
        Celsius::new(70.0),
        Rpm::new(2400.0),
    );
    assert!(p.value() > 0.0);
}

#[test]
fn controllers_link() {
    use leakctl_control::{ControlInputs, FanController};

    let mut ctl = BangBangController::paper_default();
    let decision = ctl.decide(&ControlInputs {
        now: SimInstant::from_millis(0),
        utilization: Utilization::saturating_from_fraction(0.5),
        max_cpu_temp: Some(Celsius::new(70.0)),
    });
    assert!(decision.is_none(), "70 C sits inside the comfort band");
}

#[test]
fn workload_suite_links() {
    let profile = suite::test3();
    assert!(profile.duration() > SimDuration::from_secs(0));
}

#[test]
fn bench_pipeline_links() {
    let pipeline = leakctl_bench::quick_pipeline(leakctl_bench::REPRO_SEED);
    assert!(!pipeline.lut.entries().is_empty());
}
