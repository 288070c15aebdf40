//! Fan units, the fan bank, and the external programmable supplies.

use leakctl_units::{AirFlow, Rpm, SimDuration, SimInstant, Watts};

use leakctl_power::FanPowerModel;

/// One physical fan: tracks its setpoint and its actual speed, which
/// slews toward the setpoint at a finite rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanUnit {
    setpoint: Rpm,
    actual: Rpm,
    slew_rpm_per_s: f64,
}

impl FanUnit {
    /// Creates a fan spinning at `initial`, already at its setpoint.
    ///
    /// # Panics
    ///
    /// Panics for a non-positive slew rate.
    #[must_use]
    pub fn new(initial: Rpm, slew_rpm_per_s: f64) -> Self {
        assert!(slew_rpm_per_s > 0.0, "slew rate must be positive");
        Self {
            setpoint: initial,
            actual: initial,
            slew_rpm_per_s,
        }
    }

    /// Requests a new speed; the fan slews toward it over subsequent
    /// [`FanUnit::advance`] calls.
    pub fn set_target(&mut self, rpm: Rpm) {
        self.setpoint = rpm;
    }

    /// Moves the actual speed toward the setpoint by up to
    /// `slew · dt`.
    pub fn advance(&mut self, dt: SimDuration) {
        let max_delta = self.slew_rpm_per_s * dt.as_secs_f64();
        let diff = self.setpoint.value() - self.actual.value();
        let step = diff.clamp(-max_delta, max_delta);
        self.actual = Rpm::new(self.actual.value() + step);
    }

    /// The commanded speed.
    #[must_use]
    pub fn setpoint(&self) -> Rpm {
        self.setpoint
    }

    /// The present rotational speed.
    #[must_use]
    pub fn actual(&self) -> Rpm {
        self.actual
    }

    /// `true` once the fan has reached its setpoint.
    #[must_use]
    pub fn is_settled(&self) -> bool {
        (self.actual.value() - self.setpoint.value()).abs() < 1e-9
    }
}

/// An external programmable power supply (the paper's Agilent E3644A)
/// driving one *pair* of fans over RS-232.
///
/// Commands arrive after a fixed latency — the script on the DLC-PC
/// writes the new current setting and the supply settles — after which
/// the pair's fans start slewing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanSupply {
    pending: Option<(SimInstant, Rpm)>,
    latency: SimDuration,
    last_applied: Rpm,
}

impl FanSupply {
    /// Creates a supply with the given command latency, initially
    /// holding `initial`.
    #[must_use]
    pub fn new(initial: Rpm, latency: SimDuration) -> Self {
        Self {
            pending: None,
            latency,
            last_applied: initial,
        }
    }

    /// Queues a speed command issued at `now`. A newer command replaces
    /// an unapplied older one (the serial link processes the latest
    /// setting).
    pub fn command(&mut self, now: SimInstant, rpm: Rpm) {
        self.pending = Some((now + self.latency, rpm));
    }

    /// Returns the setting the supply presents at `now`, applying any
    /// due command.
    pub fn poll(&mut self, now: SimInstant) -> Rpm {
        if let Some((due, rpm)) = self.pending {
            if now >= due {
                self.last_applied = rpm;
                self.pending = None;
            }
        }
        self.last_applied
    }

    /// The most recently applied setting (ignores pending commands).
    #[must_use]
    pub fn applied(&self) -> Rpm {
        self.last_applied
    }

    /// The setting the supply is heading for: the pending command if one
    /// is in flight, otherwise the applied setting.
    #[must_use]
    pub fn target(&self) -> Rpm {
        self.pending.map_or(self.last_applied, |(_, rpm)| rpm)
    }

    /// `true` while a command is still in flight.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }
}

/// A fault injected into a chassis fan bank.
///
/// Faults act at the bank level — where a seized controller board or a
/// clogged chassis filter acts on the real server — and propagate into
/// the thermal network automatically because every step re-derives the
/// chassis flow from [`FanBank::flow`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FanFault {
    /// Fans healthy.
    #[default]
    None,
    /// Seized fan controller: the bank ignores every new speed command
    /// (including the service processor's emergency max-cooling) and
    /// holds whatever the supplies last applied.
    Stuck,
    /// Worn bearings / clogged filters: the fans spin and draw power as
    /// commanded but deliver only `flow_scale ∈ [0, 1]` of the healthy
    /// airflow.
    Degraded {
        /// Fraction of the healthy airflow still delivered.
        flow_scale: f64,
    },
}

/// The chassis fan bank: three supplies, each driving a pair of fans,
/// as in the paper's "6 fans, distributed in 3 rows of 2".
///
/// A plain record on fixed arrays (no heap pointers), so a fleet can
/// keep thousands of banks in one contiguous block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanBank {
    supplies: [FanSupply; Self::PAIRS],
    fans: [FanUnit; 2 * Self::PAIRS],
    model: FanPowerModel,
    min_rpm: Rpm,
    max_rpm: Rpm,
    speed_changes: u64,
    fault: FanFault,
}

impl FanBank {
    /// Number of supply-driven pairs.
    pub const PAIRS: usize = 3;

    /// Creates the bank with all fans at `initial`.
    ///
    /// # Panics
    ///
    /// Panics when the model's fan count is not `2 × PAIRS` or limits
    /// are inconsistent.
    #[must_use]
    pub fn new(
        model: FanPowerModel,
        initial: Rpm,
        slew_rpm_per_s: f64,
        latency: SimDuration,
        min_rpm: Rpm,
        max_rpm: Rpm,
    ) -> Self {
        assert_eq!(
            model.count() as usize,
            2 * Self::PAIRS,
            "fan model must describe 6 fans (3 pairs)"
        );
        assert!(min_rpm < max_rpm, "min_rpm must be below max_rpm");
        Self {
            supplies: [FanSupply::new(initial, latency); Self::PAIRS],
            fans: [FanUnit::new(initial, slew_rpm_per_s); 2 * Self::PAIRS],
            model,
            min_rpm,
            max_rpm,
            speed_changes: 0,
            fault: FanFault::None,
        }
    }

    /// Injects (or clears, with [`FanFault::None`]) a bank-level fault.
    ///
    /// # Panics
    ///
    /// Panics for a [`FanFault::Degraded`] flow scale outside `[0, 1]`.
    pub fn inject_fault(&mut self, fault: FanFault) {
        if let FanFault::Degraded { flow_scale } = fault {
            assert!(
                flow_scale.is_finite() && (0.0..=1.0).contains(&flow_scale),
                "degraded fan flow scale must be in [0, 1]"
            );
        }
        self.fault = fault;
    }

    /// The currently injected fault ([`FanFault::None`] when healthy).
    #[must_use]
    pub fn fault(&self) -> FanFault {
        self.fault
    }

    /// Commands every pair to `rpm` (clamped to the supported range).
    /// Counts as one speed change when the clamped value differs from
    /// the last applied command of any supply. A [`FanFault::Stuck`]
    /// bank silently drops the command.
    pub fn command_all(&mut self, now: SimInstant, rpm: Rpm) {
        if self.fault == FanFault::Stuck {
            return;
        }
        let rpm = rpm.clamp(self.min_rpm, self.max_rpm);
        let changed = self.supplies.iter().any(|s| s.target() != rpm);
        for supply in &mut self.supplies {
            if supply.target() != rpm {
                supply.command(now, rpm);
            }
        }
        if changed {
            self.speed_changes += 1;
        }
    }

    /// Commands a single pair (0-based).
    ///
    /// # Panics
    ///
    /// Panics for a pair index ≥ [`FanBank::PAIRS`].
    pub fn command_pair(&mut self, now: SimInstant, pair: usize, rpm: Rpm) {
        assert!(pair < Self::PAIRS, "pair index out of range");
        if self.fault == FanFault::Stuck {
            return;
        }
        let rpm = rpm.clamp(self.min_rpm, self.max_rpm);
        if self.supplies[pair].target() != rpm {
            self.speed_changes += 1;
            self.supplies[pair].command(now, rpm);
        }
    }

    /// Advances supplies (apply due commands) and fan slewing by `dt`
    /// ending at `now`.
    pub fn advance(&mut self, now: SimInstant, dt: SimDuration) {
        for (pair, supply) in self.supplies.iter_mut().enumerate() {
            let setting = supply.poll(now);
            for fan in &mut self.fans[2 * pair..2 * pair + 2] {
                fan.set_target(setting);
            }
        }
        for fan in &mut self.fans {
            fan.advance(dt);
        }
    }

    /// Total electrical power drawn by the bank right now (sum of the
    /// per-fan cubic law at each fan's actual speed).
    #[must_use]
    pub fn power(&self) -> Watts {
        // The model describes the whole bank at a uniform speed; sum
        // per-fan contributions by evaluating at each fan's speed and
        // dividing by the count.
        self.fans
            .iter()
            .map(|f| self.model.power(f.actual()) / f64::from(self.model.count()))
            .sum()
    }

    /// Total air flow delivered right now ([`FanFault::Degraded`]
    /// scales it; power draw is unaffected — worn fans spin at full
    /// speed and full wattage for less air).
    #[must_use]
    pub fn flow(&self) -> AirFlow {
        let scale = match self.fault {
            FanFault::Degraded { flow_scale } => flow_scale,
            FanFault::None | FanFault::Stuck => 1.0,
        };
        let healthy: AirFlow = self
            .fans
            .iter()
            .map(|f| self.model.flow(f.actual()) / f64::from(self.model.count()))
            .sum();
        AirFlow::new(healthy.value() * scale)
    }

    /// Mean actual speed across the six fans.
    #[must_use]
    pub fn mean_rpm(&self) -> Rpm {
        let sum: f64 = self.fans.iter().map(|f| f.actual().value()).sum();
        Rpm::new(sum / self.fans.len() as f64)
    }

    /// The most recent command applied to pair 0 (all-pair commands keep
    /// pairs in lockstep).
    #[must_use]
    pub fn commanded(&self) -> Rpm {
        self.supplies[0].applied()
    }

    /// Number of distinct speed-change commands accepted.
    #[must_use]
    pub fn speed_changes(&self) -> u64 {
        self.speed_changes
    }

    /// `true` when every fan has reached its setpoint and no command is
    /// pending.
    #[must_use]
    pub fn is_settled(&self) -> bool {
        self.fans.iter().all(FanUnit::is_settled) && self.supplies.iter().all(|s| !s.has_pending())
    }

    /// The supported speed range.
    #[must_use]
    pub fn rpm_range(&self) -> (Rpm, Rpm) {
        (self.min_rpm, self.max_rpm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> FanBank {
        FanBank::new(
            FanPowerModel::paper_server(),
            Rpm::new(3300.0),
            600.0,
            SimDuration::from_millis(100),
            Rpm::new(1800.0),
            Rpm::new(4200.0),
        )
    }

    fn at(ms: u64) -> SimInstant {
        SimInstant::from_millis(ms)
    }

    #[test]
    fn fan_slews_at_configured_rate() {
        let mut fan = FanUnit::new(Rpm::new(1800.0), 600.0);
        fan.set_target(Rpm::new(3000.0));
        fan.advance(SimDuration::from_secs(1));
        assert_eq!(fan.actual(), Rpm::new(2400.0));
        assert!(!fan.is_settled());
        fan.advance(SimDuration::from_secs(1));
        assert_eq!(fan.actual(), Rpm::new(3000.0));
        assert!(fan.is_settled());
        // Downward slew too.
        fan.set_target(Rpm::new(2400.0));
        fan.advance(SimDuration::from_millis(500));
        assert_eq!(fan.actual(), Rpm::new(2700.0));
        assert_eq!(fan.setpoint(), Rpm::new(2400.0));
    }

    #[test]
    fn supply_applies_after_latency() {
        let mut s = FanSupply::new(Rpm::new(3300.0), SimDuration::from_millis(100));
        s.command(at(0), Rpm::new(2400.0));
        assert!(s.has_pending());
        assert_eq!(s.poll(at(50)), Rpm::new(3300.0));
        assert_eq!(s.poll(at(100)), Rpm::new(2400.0));
        assert!(!s.has_pending());
        assert_eq!(s.applied(), Rpm::new(2400.0));
    }

    #[test]
    fn newer_command_replaces_pending() {
        let mut s = FanSupply::new(Rpm::new(3300.0), SimDuration::from_millis(100));
        s.command(at(0), Rpm::new(2400.0));
        s.command(at(50), Rpm::new(4200.0));
        assert_eq!(s.poll(at(120)), Rpm::new(3300.0), "first command dropped");
        assert_eq!(s.poll(at(150)), Rpm::new(4200.0));
    }

    #[test]
    fn bank_commands_propagate_to_all_fans() {
        let mut b = bank();
        b.command_all(at(0), Rpm::new(2400.0));
        // Latency then slew: 3300 → 2400 at 600 RPM/s takes 1.5 s.
        for step in 1..=20 {
            b.advance(at(step * 100), SimDuration::from_millis(100));
        }
        assert!(b.is_settled());
        assert_eq!(b.mean_rpm(), Rpm::new(2400.0));
        assert_eq!(b.commanded(), Rpm::new(2400.0));
    }

    #[test]
    fn commands_clamped_to_range() {
        let mut b = bank();
        b.command_all(at(0), Rpm::new(9000.0));
        for step in 1..=40 {
            b.advance(at(step * 100), SimDuration::from_millis(100));
        }
        assert_eq!(b.mean_rpm(), Rpm::new(4200.0));
        b.command_all(at(5_000), Rpm::new(100.0));
        for step in 51..=120 {
            b.advance(at(step * 100), SimDuration::from_millis(100));
        }
        assert_eq!(b.mean_rpm(), Rpm::new(1800.0));
    }

    #[test]
    fn speed_change_counting() {
        let mut b = bank();
        assert_eq!(b.speed_changes(), 0);
        b.command_all(at(0), Rpm::new(2400.0));
        assert_eq!(b.speed_changes(), 1);
        // Re-commanding the same value is not a change.
        b.command_all(at(1_000), Rpm::new(2400.0));
        assert_eq!(b.speed_changes(), 1);
        b.command_all(at(2_000), Rpm::new(3000.0));
        assert_eq!(b.speed_changes(), 2);
        b.command_pair(at(3_000), 1, Rpm::new(1800.0));
        assert_eq!(b.speed_changes(), 3);
    }

    #[test]
    fn power_and_flow_track_actual_speed() {
        let mut b = bank();
        let p_before = b.power();
        let q_before = b.flow();
        b.command_all(at(0), Rpm::new(4200.0));
        for step in 1..=30 {
            b.advance(at(step * 100), SimDuration::from_millis(100));
        }
        assert!(b.power() > p_before);
        assert!(b.flow() > q_before);
        // At a uniform speed the bank matches the model exactly.
        let model = FanPowerModel::paper_server();
        assert!((b.power().value() - model.power(Rpm::new(4200.0)).value()).abs() < 1e-9);
        assert!((b.flow().value() - model.flow(Rpm::new(4200.0)).value()).abs() < 1e-9);
    }

    #[test]
    fn per_pair_speeds_mix() {
        let mut b = bank();
        b.command_pair(at(0), 0, Rpm::new(1800.0));
        b.command_pair(at(0), 2, Rpm::new(4200.0));
        for step in 1..=60 {
            b.advance(at(step * 100), SimDuration::from_millis(100));
        }
        let (lo, hi) = b.rpm_range();
        assert_eq!((lo, hi), (Rpm::new(1800.0), Rpm::new(4200.0)));
        // Mean of 1800, 1800, 3300, 3300, 4200, 4200.
        assert!((b.mean_rpm().value() - 3100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "pair index")]
    fn bad_pair_rejected() {
        let mut b = bank();
        b.command_pair(at(0), 3, Rpm::new(2000.0));
    }

    #[test]
    fn stuck_bank_ignores_commands_until_cleared() {
        let mut b = bank();
        b.inject_fault(FanFault::Stuck);
        assert_eq!(b.fault(), FanFault::Stuck);
        b.command_all(at(0), Rpm::new(4200.0));
        b.command_pair(at(0), 1, Rpm::new(4200.0));
        for step in 1..=30 {
            b.advance(at(step * 100), SimDuration::from_millis(100));
        }
        assert_eq!(b.mean_rpm(), Rpm::new(3300.0), "stuck fans hold speed");
        assert_eq!(b.speed_changes(), 0);
        // Clearing the fault restores command authority.
        b.inject_fault(FanFault::None);
        b.command_all(at(4_000), Rpm::new(4200.0));
        for step in 41..=80 {
            b.advance(at(step * 100), SimDuration::from_millis(100));
        }
        assert_eq!(b.mean_rpm(), Rpm::new(4200.0));
        assert_eq!(b.speed_changes(), 1);
    }

    #[test]
    fn degraded_bank_moves_less_air_at_full_power() {
        let mut b = bank();
        let healthy_flow = b.flow();
        let healthy_power = b.power();
        b.inject_fault(FanFault::Degraded { flow_scale: 0.4 });
        assert!((b.flow().value() - healthy_flow.value() * 0.4).abs() < 1e-12);
        assert_eq!(b.power(), healthy_power, "worn fans still draw full power");
        // Degraded fans still take commands.
        b.command_all(at(0), Rpm::new(4200.0));
        assert_eq!(b.speed_changes(), 1);
        b.inject_fault(FanFault::None);
        assert_eq!(b.flow(), healthy_flow);
    }

    #[test]
    #[should_panic(expected = "flow scale")]
    fn bad_flow_scale_rejected() {
        let mut b = bank();
        b.inject_fault(FanFault::Degraded { flow_scale: 1.5 });
    }
}
