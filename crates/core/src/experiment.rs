//! Controller-evaluation runner implementing the paper's experimental
//! protocol.
//!
//! Every experiment follows §IV of the paper: the machine starts from a
//! forced cold state (≥10 minutes idle with fans at 3600 RPM), the
//! controller takes over at `t = 0` with another 5 idle minutes for
//! stabilization, the workload profile runs, and a final idle cooldown
//! lets temperatures decay. Energy, peak power and the Table I metrics
//! are accounted over the profile phase only.
//!
//! Each run drives `Server::step`, which integrates the thermal network
//! through a cached `TransientSolver`: fan flows are constant for long
//! stretches of the protocol, so most steps reduce to an O(n²)
//! back-substitution on a reused factorization. The machine itself is
//! chosen through [`RunOptions::config`].

use leakctl_control::{ControlInputs, FanController};
use leakctl_platform::{Server, ServerConfig};
use leakctl_units::{Celsius, Joules, Rpm, SimDuration, SimInstant, Utilization, Watts};
use leakctl_workload::{LoadGen, Profile, PwmConfig};

use crate::error::CoreError;

/// Options for [`run_experiment`].
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Machine description.
    pub config: ServerConfig,
    /// Simulation step.
    pub step: SimDuration,
    /// Cold-soak idle phase (fans forced to 3600 RPM, not accounted).
    pub warmup: SimDuration,
    /// Controller-engaged idle stabilization (not accounted).
    pub stabilize: SimDuration,
    /// Idle cooldown after the profile (not accounted).
    pub cooldown: SimDuration,
    /// Sample period for the recorded time series.
    pub sample_period: SimDuration,
    /// LoadGen PWM realization.
    pub pwm: PwmConfig,
    /// Record a time series (disable for bulk sweeps).
    pub record: bool,
}

impl Default for RunOptions {
    /// The paper's protocol: 10-minute cold soak, 5-minute
    /// stabilization, 10-minute cooldown, 1-second steps, 10-second
    /// samples.
    fn default() -> Self {
        Self {
            config: ServerConfig::default(),
            step: SimDuration::from_secs(1),
            warmup: SimDuration::from_mins(10),
            stabilize: SimDuration::from_mins(5),
            cooldown: SimDuration::from_mins(10),
            sample_period: SimDuration::from_secs(10),
            pwm: PwmConfig::default(),
            record: true,
        }
    }
}

impl RunOptions {
    /// Shortened phases for unit tests and smoke runs.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            warmup: SimDuration::from_mins(2),
            stabilize: SimDuration::from_mins(1),
            cooldown: SimDuration::from_mins(1),
            ..Self::default()
        }
    }
}

/// One recorded sample of a run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunSample {
    /// Minutes since the controller took over (`t = 0` in the paper's
    /// figures).
    pub minutes: f64,
    /// Target utilization of the profile at this instant.
    pub target_percent: f64,
    /// Mean of the measured CPU temperature sensors, °C.
    pub cpu_temp_measured: f64,
    /// Ground-truth hottest die temperature, °C.
    pub die_temp_true: f64,
    /// Mean actual fan speed, RPM.
    pub rpm: f64,
    /// System (wall) power, W.
    pub system_power: f64,
    /// Fan power, W.
    pub fan_power: f64,
}

/// Table I metrics for one run, accounted over the profile phase.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunMetrics {
    /// Total (system + fan) energy.
    pub total_energy: Joules,
    /// Fan-subsystem energy.
    pub fan_energy: Joules,
    /// Peak instantaneous total power.
    pub peak_power: Watts,
    /// Hottest measured CPU temperature during the profile.
    pub max_temp: Celsius,
    /// Fan speed changes accepted during the profile.
    pub fan_changes: u64,
    /// Time-averaged actual fan speed.
    pub avg_rpm: Rpm,
    /// Profile duration.
    pub duration: SimDuration,
    /// Thermal-failsafe activations during the whole experiment.
    pub failsafe_activations: u32,
}

/// Everything produced by one experiment.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Controller name.
    pub controller: String,
    /// Profile-phase metrics.
    pub metrics: RunMetrics,
    /// Recorded time series (empty when `record` was off); covers
    /// stabilization, profile and cooldown.
    pub samples: Vec<RunSample>,
}

/// Runs one controller over one profile under the paper's protocol.
///
/// # Errors
///
/// Propagates platform failures (thermal solver, telemetry).
pub fn run_experiment(
    options: &RunOptions,
    profile: Profile,
    controller: &mut dyn FanController,
    seed: u64,
) -> Result<RunOutcome, CoreError> {
    let mut server = Server::new(options.config.clone(), seed)?;
    controller.reset();

    // ---- Phase A: forced cold state (fans at 3600 RPM, idle). ------
    server.command_fan_speed(Rpm::new(3600.0));
    run_idle(&mut server, options.step, options.warmup)?;

    // `t = 0` of the paper's figures: controller takes over.
    let t0 = server.now();
    let gen = LoadGen::new(profile, options.pwm);
    let profile_duration = gen.duration();
    let profile_start = t0 + options.stabilize;
    let profile_end = profile_start + profile_duration;
    let experiment_end = profile_end + options.cooldown;

    // Preallocate the recorded series: one sample per period over
    // stabilization + profile + cooldown, plus slack for the endpoints.
    // A zero sample period degenerates to one sample per step, so cap
    // the guess at the step count rather than dividing by zero.
    let mut samples = Vec::with_capacity(if options.record {
        let experiment_secs = (experiment_end - t0).as_secs_f64();
        let per_period = if options.sample_period.is_zero() {
            f64::INFINITY
        } else {
            experiment_secs / options.sample_period.as_secs_f64()
        };
        let per_step = experiment_secs / options.step.as_secs_f64();
        let estimate = per_period.min(per_step);
        if estimate.is_finite() {
            estimate as usize + 2
        } else {
            0
        }
    } else {
        0
    });
    let mut next_sample = t0;
    let mut next_decision = t0;
    let mut fan_changes_at_profile_start = 0;
    let mut rpm_time_integral = 0.0;
    let mut max_temp = Celsius::new(f64::NEG_INFINITY);

    while server.now() < experiment_end {
        let now = server.now();
        let in_profile = now >= profile_start && now < profile_end;

        // Profile-relative activity (idle outside the profile phase).
        let activity = if in_profile {
            let rel = SimInstant::ZERO + (now - profile_start);
            gen.average_over(rel, options.step)
        } else {
            Utilization::IDLE
        };

        // Controller decision at its own cadence, using only
        // telemetry-visible inputs. The reported utilization is the
        // profile target: the real LoadGen duty-cycles at fine (sub-
        // second) granularity, so an OS utilization counter averaged
        // over the 1-second `sar` window reads the duty-cycle average —
        // our coarser PWM period is a thermal-modeling device and must
        // not leak into the counters.
        if now >= next_decision {
            let poll = controller.poll_period();
            let reported = if in_profile {
                let rel = SimInstant::ZERO + (now - profile_start);
                gen.target(rel)
            } else {
                Utilization::IDLE
            };
            let inputs = ControlInputs {
                now,
                utilization: reported,
                max_cpu_temp: server.max_measured_cpu_temp(),
            };
            if let Some(rpm) = controller.decide(&inputs) {
                server.command_fan_speed(rpm);
            }
            next_decision = now + poll;
        }

        // Account profile-phase metrics.
        if now == profile_start {
            server.reset_accounting();
            fan_changes_at_profile_start = server.fan_speed_changes();
        }
        server.step(options.step, activity)?;
        if in_profile {
            rpm_time_integral += server.actual_rpm().value() * options.step.as_secs_f64();
            if let Some(t) = server.max_measured_cpu_temp() {
                max_temp = max_temp.max(t);
            }
        }

        // Time-series recording.
        if options.record && server.now() >= next_sample {
            let minutes = (server.now() - t0).as_mins_f64();
            let rel = if server.now() >= profile_start && server.now() < profile_end {
                Some(SimInstant::ZERO + (server.now() - profile_start))
            } else {
                None
            };
            let target = rel.map_or(0.0, |r| gen.target(r).as_percent());
            // Allocation-free mean over the measured-temperature
            // channel tails (this runs every sample period).
            let (sum_meas, count_meas) = server
                .measured_cpu_temps_iter()
                .fold((0.0, 0usize), |(sum, count), t| {
                    (sum + t.degrees(), count + 1)
                });
            let mean_meas = if count_meas == 0 {
                f64::NAN
            } else {
                sum_meas / count_meas as f64
            };
            samples.push(RunSample {
                minutes,
                target_percent: target,
                cpu_temp_measured: mean_meas,
                die_temp_true: server.max_die_temperature().degrees(),
                rpm: server.actual_rpm().value(),
                system_power: server.system_power().value(),
                fan_power: server.fan_power().value(),
            });
            next_sample += options.sample_period;
        }
    }

    let metrics = RunMetrics {
        total_energy: server.total_energy(),
        fan_energy: server.fan_energy(),
        peak_power: server.peak_power(),
        max_temp,
        fan_changes: server.fan_speed_changes() - fan_changes_at_profile_start,
        avg_rpm: Rpm::new(rpm_time_integral / profile_duration.as_secs_f64()),
        duration: profile_duration,
        failsafe_activations: server.failsafe_activations(),
    };
    Ok(RunOutcome {
        controller: controller.name().to_owned(),
        metrics,
        samples,
    })
}

/// Runs the server idle for `duration`.
fn run_idle(
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

/// Measures the idle power of the machine under its default cooling —
/// the reference the paper subtracts when reporting *net* savings
/// ("we discard the idle server power as that part of the consumption
/// … cannot be influenced by the fan control").
///
/// # Errors
///
/// Propagates platform failures.
pub fn measure_idle_power(config: &ServerConfig, seed: u64) -> Result<Watts, CoreError> {
    let mut server = Server::new(config.clone(), seed)?;
    server.command_fan_speed(config.default_rpm);
    // Settle, then average over a clean window.
    run_idle(
        &mut server,
        SimDuration::from_secs(1),
        SimDuration::from_mins(25),
    )?;
    server.reset_accounting();
    run_idle(
        &mut server,
        SimDuration::from_secs(1),
        SimDuration::from_mins(10),
    )?;
    Ok(server.total_energy().average_power(server.accounted_time()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakctl_control::{FixedSpeedController, LookupTable, LutController};

    fn short_profile(percent: f64, mins: u64) -> Profile {
        Profile::constant(
            Utilization::from_percent(percent).unwrap(),
            SimDuration::from_mins(mins),
        )
        .unwrap()
    }

    fn small_lut() -> LookupTable {
        LookupTable::new(vec![
            (Utilization::from_percent(50.0).unwrap(), Rpm::new(1800.0)),
            (Utilization::from_percent(100.0).unwrap(), Rpm::new(2400.0)),
        ])
        .unwrap()
    }

    #[test]
    fn default_controller_runs_and_accounts() {
        let mut ctl = FixedSpeedController::paper_default();
        let outcome =
            run_experiment(&RunOptions::fast(), short_profile(100.0, 10), &mut ctl, 1).unwrap();
        assert_eq!(outcome.controller, "Default");
        let m = outcome.metrics;
        assert_eq!(m.duration, SimDuration::from_mins(10));
        // ≈500 W for 10 min ≈ 0.083 kWh.
        let kwh = m.total_energy.as_kwh().value();
        assert!((0.06..=0.11).contains(&kwh), "energy {kwh} kWh");
        assert!(m.peak_power.value() > 450.0);
        assert!((3250.0..=3350.0).contains(&m.avg_rpm.value()));
        assert_eq!(m.fan_changes, 0, "default never changes speed mid-run");
        assert_eq!(m.failsafe_activations, 0);
        assert!(!outcome.samples.is_empty());
    }

    #[test]
    fn lut_controller_tracks_load() {
        let mut ctl = LutController::paper_default(small_lut());
        let profile = Profile::builder()
            .hold_percent(10.0, SimDuration::from_mins(5))
            .unwrap()
            .hold_percent(100.0, SimDuration::from_mins(5))
            .unwrap()
            .build();
        let outcome = run_experiment(&RunOptions::fast(), profile, &mut ctl, 2).unwrap();
        // The LUT must have switched between its two speeds.
        assert!(outcome.metrics.fan_changes >= 1);
        // Average RPM strictly below the default baseline.
        assert!(outcome.metrics.avg_rpm < Rpm::new(2600.0));
    }

    #[test]
    fn samples_cover_all_phases() {
        let mut ctl = FixedSpeedController::paper_default();
        let opts = RunOptions::fast();
        let outcome = run_experiment(&opts, short_profile(50.0, 5), &mut ctl, 3).unwrap();
        let last = outcome.samples.last().unwrap();
        // stabilize (1) + profile (5) + cooldown (1) ≈ 7 minutes.
        assert!(last.minutes >= 6.5, "last sample at {} min", last.minutes);
        let first = outcome.samples.first().unwrap();
        assert!(first.minutes <= 0.2);
        // Target percent reflects the profile only inside the window.
        let mid = outcome
            .samples
            .iter()
            .find(|s| s.minutes > 2.0 && s.minutes < 5.0)
            .unwrap();
        assert!((mid.target_percent - 50.0).abs() < 1e-9);
        assert!((first.target_percent - 0.0).abs() < 1e-9);
    }

    #[test]
    fn record_flag_suppresses_samples() {
        let mut ctl = FixedSpeedController::paper_default();
        let mut opts = RunOptions::fast();
        opts.record = false;
        let outcome = run_experiment(&opts, short_profile(50.0, 3), &mut ctl, 4).unwrap();
        assert!(outcome.samples.is_empty());
    }

    #[test]
    fn deterministic_outcomes() {
        let run = |seed| {
            let mut ctl = LutController::paper_default(small_lut());
            run_experiment(&RunOptions::fast(), short_profile(75.0, 5), &mut ctl, seed)
                .unwrap()
                .metrics
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn idle_power_in_calibration_band() {
        let p = measure_idle_power(&ServerConfig::default(), 5).unwrap();
        assert!(
            (440.0..=500.0).contains(&p.value()),
            "idle power {p} outside calibration band"
        );
    }
}
