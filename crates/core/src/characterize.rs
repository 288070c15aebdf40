//! Characterization sweeps (§IV of the paper): utilization × fan speed
//! grid under LoadGen, measuring steady temperatures and powers through
//! telemetry.
//!
//! Sweeps hold the fan speed constant for each grid point, which is the
//! best case for the platform's cached `TransientSolver`: the thermal
//! system is factored once per point and every subsequent second of
//! simulated time is a single back-substitution.

use leakctl_platform::{Server, ServerConfig};
use leakctl_units::{Celsius, Rpm, SimDuration, SimInstant, Utilization, Watts};
use leakctl_workload::{LoadGen, Profile, PwmConfig};

use crate::error::CoreError;

/// Options for [`characterize`].
#[derive(Debug, Clone)]
pub struct CharacterizeOptions {
    /// Machine description.
    pub config: ServerConfig,
    /// Utilization levels to sweep.
    pub utilizations: Vec<Utilization>,
    /// Fan speeds to sweep.
    pub fan_speeds: Vec<Rpm>,
    /// Simulation step.
    pub step: SimDuration,
    /// Cold-soak idle (fans 3600 RPM).
    pub warmup: SimDuration,
    /// Idle stabilization after setting the target fan speed.
    pub stabilize: SimDuration,
    /// Loaded run length.
    pub run: SimDuration,
    /// Averaging window at the end of the run (must not exceed `run`).
    pub measure_window: SimDuration,
    /// LoadGen PWM realization.
    pub pwm: PwmConfig,
}

impl CharacterizeOptions {
    /// The paper's §IV protocol: 8 utilization levels × 5 fan speeds,
    /// 30-minute runs with 10-minute cold soak and 5-minute
    /// stabilization, measuring over the final 10 minutes.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            config: ServerConfig::default(),
            utilizations: [10.0, 25.0, 40.0, 50.0, 60.0, 75.0, 90.0, 100.0]
                .iter()
                .filter_map(|&p| Utilization::from_percent(p).ok())
                .collect(),
            fan_speeds: [1800.0, 2400.0, 3000.0, 3600.0, 4200.0]
                .map(Rpm::new)
                .to_vec(),
            step: SimDuration::from_secs(1),
            warmup: SimDuration::from_mins(10),
            stabilize: SimDuration::from_mins(5),
            run: SimDuration::from_mins(30),
            measure_window: SimDuration::from_mins(10),
            pwm: PwmConfig::default(),
        }
    }

    /// A reduced sweep (4 × 3 grid, shorter phases) for tests, examples
    /// and quick demos. Still long enough to reach near-steady state.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            utilizations: [25.0, 50.0, 75.0, 100.0]
                .iter()
                .filter_map(|&p| Utilization::from_percent(p).ok())
                .collect(),
            fan_speeds: [1800.0, 2400.0, 3000.0, 4200.0].map(Rpm::new).to_vec(),
            warmup: SimDuration::from_mins(3),
            stabilize: SimDuration::from_mins(2),
            run: SimDuration::from_mins(20),
            measure_window: SimDuration::from_mins(5),
            ..Self::paper()
        }
    }
}

impl Default for CharacterizeOptions {
    /// The paper's protocol.
    fn default() -> Self {
        Self::paper()
    }
}

/// One measured operating point.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CharacterizationPoint {
    /// Commanded utilization level.
    pub utilization: Utilization,
    /// Commanded fan speed.
    pub rpm: Rpm,
    /// Mean of the four measured CPU temperatures over the window.
    pub avg_cpu_temp: Celsius,
    /// Hottest measured CPU temperature over the window.
    pub max_cpu_temp: Celsius,
    /// Mean measured system (wall) power over the window.
    pub system_power: Watts,
    /// Mean measured fan power over the window.
    pub fan_power: Watts,
    /// Ground-truth mean CPU leakage over the window (for validating
    /// the leakage fit; the fitting pipeline never reads it).
    pub true_leakage: Watts,
}

/// The full characterization dataset.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CharacterizationData {
    /// Measured grid points, in sweep order (utilization-major).
    pub points: Vec<CharacterizationPoint>,
}

impl CharacterizationData {
    /// Unique utilization levels, ascending.
    #[must_use]
    pub fn utilization_axis(&self) -> Vec<Utilization> {
        let mut seen: Vec<Utilization> = Vec::new();
        for p in &self.points {
            if !seen.contains(&p.utilization) {
                seen.push(p.utilization);
            }
        }
        seen.sort_by(|a, b| a.as_fraction().total_cmp(&b.as_fraction()));
        seen
    }

    /// Unique fan speeds, ascending.
    #[must_use]
    pub fn rpm_axis(&self) -> Vec<Rpm> {
        let mut seen: Vec<Rpm> = Vec::new();
        for p in &self.points {
            if !seen.contains(&p.rpm) {
                seen.push(p.rpm);
            }
        }
        seen.sort_by(|a, b| a.value().total_cmp(&b.value()));
        seen
    }

    /// The point measured at `(utilization, rpm)`, if present.
    #[must_use]
    pub fn point(&self, utilization: Utilization, rpm: Rpm) -> Option<&CharacterizationPoint> {
        self.points
            .iter()
            .find(|p| p.utilization == utilization && p.rpm == rpm)
    }

    /// Points at one utilization level, ascending in fan speed.
    #[must_use]
    pub fn at_utilization(&self, utilization: Utilization) -> Vec<&CharacterizationPoint> {
        let mut pts: Vec<&CharacterizationPoint> = self
            .points
            .iter()
            .filter(|p| p.utilization == utilization)
            .collect();
        pts.sort_by(|a, b| a.rpm.value().total_cmp(&b.rpm.value()));
        pts
    }

    /// Serializes the dataset to CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "util_pct,rpm,avg_cpu_temp_c,max_cpu_temp_c,system_power_w,fan_power_w,true_leakage_w\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:.1},{:.0},{:.3},{:.3},{:.3},{:.3},{:.3}\n",
                p.utilization.as_percent(),
                p.rpm.value(),
                p.avg_cpu_temp.degrees(),
                p.max_cpu_temp.degrees(),
                p.system_power.value(),
                p.fan_power.value(),
                p.true_leakage.value(),
            ));
        }
        out
    }
}

/// Runs the characterization sweep.
///
/// Each grid point follows the paper's protocol on a *fresh, cold*
/// machine: cold soak at 3600 RPM, target speed set at `t = 0` with an
/// idle stabilization, then a LoadGen run at the target utilization,
/// with measurements averaged over the final window from telemetry
/// (never from simulator ground truth).
///
/// # Errors
///
/// Returns [`CoreError::Invalid`] for empty axes or a measurement
/// window longer than the run, and propagates platform failures.
pub fn characterize(
    options: &CharacterizeOptions,
    seed: u64,
) -> Result<CharacterizationData, CoreError> {
    if options.utilizations.is_empty() || options.fan_speeds.is_empty() {
        return Err(CoreError::Invalid {
            what: "characterization axes must be non-empty".to_owned(),
        });
    }
    if options.measure_window > options.run {
        return Err(CoreError::Invalid {
            what: "measurement window exceeds run duration".to_owned(),
        });
    }
    let mut points = Vec::with_capacity(options.utilizations.len() * options.fan_speeds.len());
    for (ui, &utilization) in options.utilizations.iter().enumerate() {
        for (ri, &rpm) in options.fan_speeds.iter().enumerate() {
            let point_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((ui * 101 + ri) as u64);
            points.push(measure_point(options, utilization, rpm, point_seed)?);
        }
    }
    Ok(CharacterizationData { points })
}

/// Measures one `(utilization, rpm)` grid point.
fn measure_point(
    options: &CharacterizeOptions,
    utilization: Utilization,
    rpm: Rpm,
    seed: u64,
) -> Result<CharacterizationPoint, CoreError> {
    let mut server = Server::new(options.config.clone(), seed)?;

    // Cold soak.
    server.command_fan_speed(Rpm::new(3600.0));
    step_idle(&mut server, options.step, options.warmup)?;
    // Target fan speed + idle stabilization.
    server.command_fan_speed(rpm);
    step_idle(&mut server, options.step, options.stabilize)?;

    // Loaded run.
    let profile = Profile::constant(utilization, options.run)?;
    let gen = LoadGen::new(profile, options.pwm);
    let run_start = server.now();
    let run_end = run_start + options.run;
    let window_start = run_end - options.measure_window;
    let step_secs = options.step.as_secs_f64();
    let mut leak_integral = 0.0;
    let mut leak_time = 0.0;
    while server.now() < run_end {
        let rel = SimInstant::ZERO + (server.now() - run_start);
        let activity = gen.average_over(rel, options.step);
        server.step(options.step, activity)?;
        if server.now() >= window_start {
            leak_integral += server.leakage_power().value() * step_secs;
            leak_time += step_secs;
        }
    }

    // Telemetry-window averages.
    let csth = server.csth();
    let window_mean = |name: &str| -> f64 {
        csth.channel_by_name(name)
            .and_then(|ch| {
                csth.series(ch)
                    .window(window_start, run_end + SimDuration::from_millis(1))
                    .mean()
            })
            .unwrap_or(f64::NAN)
    };
    let cpu_channels = ["cpu0_temp0", "cpu0_temp1", "cpu1_temp0", "cpu1_temp1"];
    let cpu_means: Vec<f64> = cpu_channels.iter().map(|n| window_mean(n)).collect();
    let avg_cpu = cpu_means.iter().sum::<f64>() / cpu_means.len() as f64;
    let max_cpu = cpu_channels
        .iter()
        .filter_map(|n| {
            csth.channel_by_name(n).and_then(|ch| {
                csth.series(ch)
                    .window(window_start, run_end + SimDuration::from_millis(1))
                    .max()
            })
        })
        .fold(f64::NEG_INFINITY, f64::max);

    Ok(CharacterizationPoint {
        utilization,
        rpm,
        avg_cpu_temp: Celsius::new(avg_cpu),
        max_cpu_temp: Celsius::new(max_cpu),
        system_power: Watts::new(window_mean("system_power")),
        fan_power: Watts::new(window_mean("fan_power")),
        true_leakage: Watts::new(leak_integral / leak_time.max(1e-9)),
    })
}

fn step_idle(
    server: &mut Server,
    step: SimDuration,
    duration: SimDuration,
) -> Result<(), CoreError> {
    let end = server.now() + duration;
    while server.now() < end {
        server.step(step, Utilization::IDLE)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> CharacterizeOptions {
        CharacterizeOptions {
            utilizations: vec![
                Utilization::from_percent(25.0).unwrap(),
                Utilization::from_percent(100.0).unwrap(),
            ],
            fan_speeds: vec![Rpm::new(1800.0), Rpm::new(4200.0)],
            warmup: SimDuration::from_mins(2),
            stabilize: SimDuration::from_mins(1),
            run: SimDuration::from_mins(15),
            measure_window: SimDuration::from_mins(4),
            ..CharacterizeOptions::paper()
        }
    }

    #[test]
    fn sweep_covers_grid() {
        let data = characterize(&tiny_options(), 7).unwrap();
        assert_eq!(data.points.len(), 4);
        assert_eq!(data.utilization_axis().len(), 2);
        assert_eq!(data.rpm_axis().len(), 2);
        assert!(data.point(Utilization::FULL, Rpm::new(1800.0)).is_some());
        assert_eq!(data.at_utilization(Utilization::FULL).len(), 2);
    }

    #[test]
    fn physics_shows_in_measurements() {
        let data = characterize(&tiny_options(), 7).unwrap();
        let full = Utilization::FULL;
        let quarter = Utilization::from_percent(25.0).unwrap();
        let hot = data.point(full, Rpm::new(1800.0)).unwrap();
        let cold = data.point(full, Rpm::new(4200.0)).unwrap();
        // Slower fans → hotter dies, more leakage, less fan power.
        assert!(hot.avg_cpu_temp > cold.avg_cpu_temp);
        assert!(hot.true_leakage > cold.true_leakage);
        assert!(hot.fan_power < cold.fan_power);
        // More load → more power at the same fan speed.
        let light = data.point(quarter, Rpm::new(1800.0)).unwrap();
        assert!(hot.system_power > light.system_power);
        // Max ≥ avg.
        assert!(hot.max_cpu_temp >= hot.avg_cpu_temp);
    }

    #[test]
    fn csv_round_shape() {
        let data = characterize(&tiny_options(), 7).unwrap();
        let csv = data.to_csv();
        assert_eq!(csv.lines().count(), 1 + data.points.len());
        assert!(csv.starts_with("util_pct,rpm,"));
    }

    #[test]
    fn validation_errors() {
        let mut opts = tiny_options();
        opts.utilizations.clear();
        assert!(matches!(
            characterize(&opts, 1),
            Err(CoreError::Invalid { .. })
        ));
        let mut opts = tiny_options();
        opts.measure_window = opts.run + SimDuration::from_secs(1);
        assert!(matches!(
            characterize(&opts, 1),
            Err(CoreError::Invalid { .. })
        ));
    }
}
