//! Calibrated machine description.
//!
//! Defaults reproduce the observable behaviour of the paper's server.
//! The headline calibration anchors: 100 %-utilization steady die
//! temperatures of ≈86/70/63/59/56 °C at 1800/2400/3000/3600/4200 RPM,
//! thermal settle times of ≈12 min at 1800 RPM vs ≈6 min at 4200 RPM,
//! server-level dynamic slope `k1 ≈ 0.445 W/%`, and a leakage curve
//! matching `C + 0.3231·e^(0.04749·T)`.

use leakctl_power::{FanPowerModel, PsuModel};
use leakctl_units::{Celsius, Rpm, ThermalCapacitance, ThermalConductance, Watts};

use crate::error::PlatformError;

/// Full configuration of the digital-twin server.
///
/// Construct with [`ServerConfig::default`] for the calibrated paper
/// twin and adjust individual fields for ablations;
/// [`Server::new`](crate::Server::new) validates the result.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServerConfig {
    // ---- topology -------------------------------------------------
    /// Processor sockets (the T3 machine has 2).
    pub sockets: usize,
    /// Cores per socket (16).
    pub cores_per_socket: usize,
    /// Hardware threads per core (8).
    pub threads_per_core: usize,
    /// Memory DIMMs (32, split across two banks in the airflow path).
    pub dimm_count: usize,

    // ---- power ----------------------------------------------------
    /// Per-socket idle (uncontrollable, clock-tree + uncore) power.
    pub cpu_idle_per_socket: Watts,
    /// Whole-server dynamic slope, watts per percent utilization
    /// (the paper's `k1`). Split evenly across sockets and the DIMM
    /// subsystem by `dimm_dynamic_share`.
    pub dynamic_slope_w_per_pct: f64,
    /// Fraction of the dynamic slope attributed to memory activity.
    pub dimm_dynamic_share: f64,
    /// Per-socket temperature-independent leakage (contributes to the
    /// paper's fitted constant `C`).
    pub cpu_const_leak_per_socket: Watts,
    /// Per-socket temperature-dependent leakage at the 70 °C reference
    /// (the `T²·exp` physical model scales from here).
    pub cpu_leak_ref_per_socket: Watts,
    /// Per-socket process-variation multipliers (length must equal
    /// `sockets`).
    pub process_sigma: Vec<f64>,
    /// Per-DIMM idle power.
    pub dimm_idle_each: Watts,
    /// Board/disks/service-processor constant power.
    pub board_power: Watts,
    /// Core supply voltage (reported on the per-core telemetry
    /// channels).
    pub core_voltage: f64,
    /// PSU efficiency model (applies to system power, not fans — fans
    /// are powered externally in the paper's rig).
    pub psu: PsuModel,
    /// Fan bank electrical/flow model.
    pub fans: FanPowerModel,

    // ---- thermal network -----------------------------------------
    /// Ambient temperature (the paper's isolated room sits at 24 °C).
    pub ambient: Celsius,
    /// Die thermal capacitance (per socket).
    pub die_capacitance: ThermalCapacitance,
    /// Heat-sink thermal capacitance (per socket).
    pub sink_capacitance: ThermalCapacitance,
    /// Die→sink conduction (junction-to-case+TIM).
    pub die_sink_conductance: ThermalConductance,
    /// Sink→air convection at the reference flow (per socket).
    pub sink_conv_g_ref: ThermalConductance,
    /// Convection floor at zero flow (per socket).
    pub sink_conv_g_min: ThermalConductance,
    /// Convection flow exponent.
    pub sink_conv_exponent: f64,
    /// DIMM-bank thermal capacitance (per bank of `dimm_count/2`).
    pub dimm_bank_capacitance: ThermalCapacitance,
    /// DIMM-bank→air convection at the reference flow.
    pub dimm_conv_g_ref: ThermalConductance,
    /// Air-volume thermal capacitance (per air node).
    pub air_capacitance: ThermalCapacitance,

    // ---- fan subsystem -------------------------------------------
    /// Fan slew rate, RPM per second.
    pub fan_slew_rpm_per_s: f64,
    /// Supply command latency (RS-232 + supply settling).
    pub supply_latency_ms: u64,
    /// Lowest supported fan speed.
    pub min_rpm: Rpm,
    /// Highest supported fan speed.
    pub max_rpm: Rpm,
    /// Fan speed the machine boots with (the vendor default observed in
    /// Table I's baseline rows).
    pub default_rpm: Rpm,

    // ---- protection ----------------------------------------------
    /// Critical die temperature: the service processor forces maximum
    /// cooling above this (the paper's server trips at 90 °C).
    pub critical_temp: Celsius,
    /// Temperature at which a failsafe releases back to external
    /// control.
    pub failsafe_release_temp: Celsius,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            sockets: 2,
            cores_per_socket: 16,
            threads_per_core: 8,
            dimm_count: 32,

            cpu_idle_per_socket: Watts::new(55.0),
            dynamic_slope_w_per_pct: 0.4452,
            dimm_dynamic_share: 0.30,
            cpu_const_leak_per_socket: Watts::new(4.5),
            cpu_leak_ref_per_socket: Watts::new(4.5),
            process_sigma: vec![0.96, 1.04],
            dimm_idle_each: Watts::new(3.0),
            board_power: Watts::new(180.0),
            core_voltage: 1.05,
            psu: PsuModel::paper_server(),
            fans: FanPowerModel::paper_server(),

            ambient: Celsius::new(24.0),
            die_capacitance: ThermalCapacitance::new(80.0),
            sink_capacitance: ThermalCapacitance::new(400.0),
            die_sink_conductance: ThermalConductance::new(10.0),
            sink_conv_g_ref: ThermalConductance::new(3.4),
            sink_conv_g_min: ThermalConductance::new(0.05),
            sink_conv_exponent: 0.8,
            dimm_bank_capacitance: ThermalCapacitance::new(900.0),
            dimm_conv_g_ref: ThermalConductance::new(12.0),
            air_capacitance: ThermalCapacitance::new(15.0),

            fan_slew_rpm_per_s: 600.0,
            supply_latency_ms: 100,
            min_rpm: Rpm::new(1800.0),
            max_rpm: Rpm::new(4200.0),
            default_rpm: Rpm::new(3300.0),

            critical_temp: Celsius::new(90.0),
            failsafe_release_temp: Celsius::new(80.0),
        }
    }
}

impl ServerConfig {
    /// Total hardware threads (the T3 machine exposes 256).
    #[must_use]
    pub fn total_threads(&self) -> usize {
        self.sockets * self.cores_per_socket * self.threads_per_core
    }

    /// Per-socket dynamic slope after removing the DIMM share, W/%.
    #[must_use]
    pub fn cpu_dynamic_slope_per_socket(&self) -> f64 {
        self.dynamic_slope_w_per_pct * (1.0 - self.dimm_dynamic_share) / self.sockets as f64
    }

    /// Whole-memory dynamic slope, W/%.
    #[must_use]
    pub fn dimm_dynamic_slope(&self) -> f64 {
        self.dynamic_slope_w_per_pct * self.dimm_dynamic_share
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::Config`] describing the first problem
    /// found.
    pub fn validate(&self) -> Result<(), PlatformError> {
        let fail = |what: &str| {
            Err(PlatformError::Config {
                what: what.to_owned(),
            })
        };
        if self.sockets == 0 {
            return fail("sockets must be positive");
        }
        if self.process_sigma.len() != self.sockets {
            return fail("process_sigma length must equal socket count");
        }
        if self
            .process_sigma
            .iter()
            .any(|s| *s <= 0.0 || !s.is_finite())
        {
            return fail("process sigma values must be positive");
        }
        if self.dimm_count == 0 || !self.dimm_count.is_multiple_of(2) {
            return fail("dimm_count must be positive and even (two banks)");
        }
        if !(0.0..=1.0).contains(&self.dimm_dynamic_share) {
            return fail("dimm_dynamic_share must be in [0, 1]");
        }
        if self.dynamic_slope_w_per_pct < 0.0 {
            return fail("dynamic slope must be non-negative");
        }
        if !(self.min_rpm.value() > 0.0 && self.max_rpm > self.min_rpm) {
            return fail("require 0 < min_rpm < max_rpm");
        }
        if !(self.default_rpm >= self.min_rpm && self.default_rpm <= self.max_rpm) {
            return fail("default_rpm must lie within [min_rpm, max_rpm]");
        }
        if self.fan_slew_rpm_per_s <= 0.0 {
            return fail("fan slew rate must be positive");
        }
        if self.critical_temp <= self.failsafe_release_temp {
            return fail("critical_temp must exceed failsafe_release_temp");
        }
        if self.core_voltage <= 0.0 || self.core_voltage.is_nan() {
            return fail("core voltage must be positive");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper_topology() {
        let c = ServerConfig::default();
        c.validate().unwrap();
        assert_eq!(c.sockets, 2);
        assert_eq!(c.total_threads(), 256);
        assert_eq!(c.dimm_count, 32);
        assert_eq!(c.fans.count(), 6);
    }

    #[test]
    fn dynamic_slope_split_sums_back() {
        let c = ServerConfig::default();
        let total = c.cpu_dynamic_slope_per_socket() * c.sockets as f64 + c.dimm_dynamic_slope();
        assert!((total - c.dynamic_slope_w_per_pct).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_each_problem() {
        let base = ServerConfig::default;

        let mut c = base();
        c.sockets = 0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.process_sigma = vec![1.0];
        assert!(c.validate().is_err());

        let mut c = base();
        c.process_sigma = vec![1.0, -0.5];
        assert!(c.validate().is_err());

        let mut c = base();
        c.dimm_count = 31;
        assert!(c.validate().is_err());

        let mut c = base();
        c.dimm_dynamic_share = 1.5;
        assert!(c.validate().is_err());

        let mut c = base();
        c.min_rpm = Rpm::new(5000.0);
        assert!(c.validate().is_err());

        let mut c = base();
        c.default_rpm = Rpm::new(100.0);
        assert!(c.validate().is_err());

        let mut c = base();
        c.fan_slew_rpm_per_s = 0.0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.critical_temp = Celsius::new(70.0);
        assert!(c.validate().is_err());

        let mut c = base();
        c.core_voltage = 0.0;
        assert!(c.validate().is_err());
    }
}
