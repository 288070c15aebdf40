//! The Eqn. 1 composite server power model.

use leakctl_units::{Celsius, Rpm, Utilization, Watts};

use crate::{ActivePowerModel, EmpiricalLeakage, FanPowerModel};

/// The paper's server power decomposition (Eqn. 1):
///
/// ```text
/// P_total = P_idle + P_active(U) + P_leak(T) + P_fan(RPM)
/// ```
///
/// `P_idle` is the utilization/temperature/fan-independent baseline the
/// paper subtracts when reporting *net* savings (motherboard, DIMMs at
/// idle, disks, service processor). The three variable terms come from
/// [`ActivePowerModel`], [`EmpiricalLeakage`] and [`FanPowerModel`].
///
/// This type is the *analysis* model used by the LUT builder and the
/// reporting pipeline. The digital twin computes its ground-truth power
/// from per-component models instead.
///
/// # Example
///
/// ```
/// use leakctl_power::ServerPowerModel;
/// use leakctl_units::{Celsius, Rpm, Utilization, Watts};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let m = ServerPowerModel::paper_fit();
/// let u = Utilization::from_percent(100.0)?;
/// // The controllable part of the power: leakage + fan.
/// let hot_slow = m.controllable(Celsius::new(85.0), Rpm::new(1800.0));
/// let optimal = m.controllable(Celsius::new(70.0), Rpm::new(2400.0));
/// assert!(optimal.value() < hot_slow.value());
/// # let _ = u;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServerPowerModel {
    idle: f64,
    active: ActivePowerModel,
    leakage: EmpiricalLeakage,
    fan: FanPowerModel,
}

impl ServerPowerModel {
    /// Idle baseline used for the calibrated twin, watts.
    pub const DEFAULT_IDLE_WATTS: f64 = 430.0;

    /// Creates a composite model.
    ///
    /// # Panics
    ///
    /// Panics when `idle` is negative or non-finite.
    #[must_use]
    pub fn new(
        idle: Watts,
        active: ActivePowerModel,
        leakage: EmpiricalLeakage,
        fan: FanPowerModel,
    ) -> Self {
        assert!(
            idle.value() >= 0.0 && idle.is_finite(),
            "idle power must be non-negative"
        );
        Self {
            idle: idle.value(),
            active,
            leakage,
            fan,
        }
    }

    /// The model with every component at its paper-fitted /
    /// design-calibrated value.
    #[must_use]
    pub fn paper_fit() -> Self {
        Self::new(
            Watts::new(Self::DEFAULT_IDLE_WATTS),
            ActivePowerModel::paper_fit(),
            EmpiricalLeakage::paper_fit(),
            FanPowerModel::paper_server(),
        )
    }

    /// Total server power for the given operating point.
    #[must_use]
    pub fn total(&self, u: Utilization, t: Celsius, rpm: Rpm) -> Watts {
        Watts::new(self.idle) + self.active.power(u) + self.leakage.power(t) + self.fan.power(rpm)
    }

    /// The portion the cooling controller can influence:
    /// `P_leak(T) + P_fan(RPM)` — the convex curve of Fig. 2.
    #[must_use]
    pub fn controllable(&self, t: Celsius, rpm: Rpm) -> Watts {
        self.leakage.power(t) + self.fan.power(rpm)
    }

    /// The idle baseline.
    #[must_use]
    pub fn idle(&self) -> Watts {
        Watts::new(self.idle)
    }

    /// The active-power component model.
    #[must_use]
    pub fn active(&self) -> &ActivePowerModel {
        &self.active
    }

    /// The leakage component model.
    #[must_use]
    pub fn leakage(&self) -> &EmpiricalLeakage {
        &self.leakage
    }

    /// The fan component model.
    #[must_use]
    pub fn fan(&self) -> &FanPowerModel {
        &self.fan
    }

    /// Replaces the leakage component (e.g. with freshly fitted
    /// constants from a characterization run).
    #[must_use]
    pub fn with_leakage(mut self, leakage: EmpiricalLeakage) -> Self {
        self.leakage = leakage;
        self
    }

    /// Replaces the active component.
    #[must_use]
    pub fn with_active(mut self, active: ActivePowerModel) -> Self {
        self.active = active;
        self
    }
}

impl Default for ServerPowerModel {
    /// The paper-fitted composite.
    fn default() -> Self {
        Self::paper_fit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_is_sum_of_parts() {
        let m = ServerPowerModel::paper_fit();
        let u = Utilization::from_percent(60.0).unwrap();
        let t = Celsius::new(65.0);
        let rpm = Rpm::new(3000.0);
        let total = m.total(u, t, rpm);
        let parts = m.idle() + m.active().power(u) + m.leakage().power(t) + m.fan().power(rpm);
        assert!((total.value() - parts.value()).abs() < 1e-12);
    }

    #[test]
    fn controllable_excludes_idle_and_active() {
        let m = ServerPowerModel::paper_fit();
        let c = m.controllable(Celsius::new(70.0), Rpm::new(2400.0));
        assert!(
            c.value() < 60.0,
            "leak+fan should be tens of watts, got {c}"
        );
        assert!(c.value() > 5.0);
    }

    #[test]
    fn idle_server_draw_is_plausible() {
        let m = ServerPowerModel::paper_fit();
        let p = m.total(Utilization::IDLE, Celsius::new(45.0), Rpm::new(3300.0));
        // Table I's default rows imply ≈ 460–510 W whole-server draw.
        assert!(
            p.value() > 430.0 && p.value() < 510.0,
            "idle draw {p} out of calibration band"
        );
    }

    #[test]
    fn full_load_draw_is_plausible() {
        let m = ServerPowerModel::paper_fit();
        let p = m.total(Utilization::FULL, Celsius::new(60.0), Rpm::new(3300.0));
        assert!(
            p.value() > 470.0 && p.value() < 560.0,
            "full-load draw {p} out of calibration band"
        );
    }

    #[test]
    fn controllable_curve_is_convex_with_interior_minimum() {
        // Sample leak+fan along a plausible (T, RPM) trade-off line:
        // faster fans → colder dies. This mimics Fig. 2a's x-axis.
        let m = ServerPowerModel::paper_fit();
        let points: Vec<(f64, f64)> = vec![
            // (die temp at 100 % load, RPM) — calibration targets
            (86.0, 1800.0),
            (72.0, 2400.0),
            (65.0, 3000.0),
            (60.0, 3600.0),
            (56.0, 4200.0),
        ];
        let costs: Vec<f64> = points
            .iter()
            .map(|&(t, r)| m.controllable(Celsius::new(t), Rpm::new(r)).value())
            .collect();
        let min_idx = costs
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            min_idx > 0 && min_idx < costs.len() - 1,
            "interior minimum expected, costs {costs:?}"
        );
    }

    #[test]
    fn builder_style_replacements() {
        let m = ServerPowerModel::paper_fit()
            .with_active(ActivePowerModel::new(0.5))
            .with_leakage(EmpiricalLeakage::new(5.0, 0.4, 0.05));
        assert!((m.active().watts_per_percent() - 0.5).abs() < 1e-12);
        assert!((m.leakage().offset() - 5.0).abs() < 1e-12);
    }
}
