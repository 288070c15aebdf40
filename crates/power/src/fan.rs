//! Fan power and air delivery through the fan-affinity laws.

use leakctl_units::{AirFlow, Rpm, Watts};

/// Fan-affinity model of a (bank of) cooling fan(s):
///
/// ```text
/// P(rpm) = count · (p_floor + p_ref · (rpm / rpm_ref)³)
/// Q(rpm) = count ·  q_ref · (rpm / rpm_ref)
/// ```
///
/// The cubic power law is why over-provisioned airflow is so costly —
/// the paper's central observation — and the linear flow law is how fan
/// speed reaches the thermal network's convective couplings.
///
/// # Example
///
/// ```
/// use leakctl_power::FanPowerModel;
/// use leakctl_units::Rpm;
///
/// let bank = FanPowerModel::paper_server();
/// let slow = bank.power(Rpm::new(1800.0));
/// let fast = bank.power(Rpm::new(3600.0));
/// // Doubling RPM costs ~8× the dynamic fan power (a bit less once the
/// // constant electronics floor is included).
/// assert!(fast.value() > 6.0 * slow.value());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FanPowerModel {
    count: u32,
    p_ref: f64,
    p_floor: f64,
    rpm_ref: f64,
    q_ref: f64,
}

impl FanPowerModel {
    /// Creates a model for `count` identical fans, each drawing
    /// `p_ref` watts and moving `q_ref` flow at `rpm_ref`, with a
    /// per-fan electronics floor `p_floor`.
    ///
    /// # Panics
    ///
    /// Panics when `count` is zero or any parameter is non-positive /
    /// non-finite (except `p_floor`, which may be zero).
    #[must_use]
    pub fn new(count: u32, p_ref: Watts, p_floor: Watts, rpm_ref: Rpm, q_ref: AirFlow) -> Self {
        assert!(count > 0, "fan count must be positive");
        assert!(
            p_ref.value() > 0.0 && p_ref.is_finite(),
            "reference fan power must be positive"
        );
        assert!(
            p_floor.value() >= 0.0 && p_floor.is_finite(),
            "fan power floor must be non-negative"
        );
        assert!(
            rpm_ref.value() > 0.0 && rpm_ref.is_finite(),
            "reference RPM must be positive"
        );
        assert!(
            q_ref.value() > 0.0 && q_ref.is_finite(),
            "reference flow must be positive"
        );
        Self {
            count,
            p_ref: p_ref.value(),
            p_floor: p_floor.value(),
            rpm_ref: rpm_ref.value(),
            q_ref: q_ref.value(),
        }
    }

    /// The calibrated bank for the paper's server: 6 fans in 3 rows of
    /// 2, ~33 W total at the 4200 RPM maximum, ~95 CFM per fan at
    /// 4200 RPM.
    #[must_use]
    pub fn paper_server() -> Self {
        Self::new(
            6,
            Watts::new(5.4),
            Watts::new(0.1),
            Rpm::new(4200.0),
            AirFlow::from_cfm(95.0),
        )
    }

    /// Electrical power drawn by the whole bank at `rpm`; negative RPM
    /// clamps to zero.
    #[must_use]
    pub fn power(&self, rpm: Rpm) -> Watts {
        let ratio = (rpm.value().max(0.0)) / self.rpm_ref;
        Watts::new(f64::from(self.count) * (self.p_floor + self.p_ref * ratio.powi(3)))
    }

    /// Air moved by the whole bank at `rpm`; negative RPM clamps to
    /// zero.
    #[must_use]
    pub fn flow(&self, rpm: Rpm) -> AirFlow {
        let ratio = (rpm.value().max(0.0)) / self.rpm_ref;
        AirFlow::new(f64::from(self.count) * self.q_ref * ratio)
    }

    /// Flow delivered by a single fan of the bank at `rpm`.
    #[must_use]
    pub fn flow_per_fan(&self, rpm: Rpm) -> AirFlow {
        self.flow(rpm) / f64::from(self.count)
    }

    /// Returns a copy whose delivered *flow* is scaled by `factor`
    /// while electrical power is unchanged — models altitude derating,
    /// where thinner air moves less heat-carrying mass for the same
    /// fan work (`factor` = air-density ratio vs sea level).
    ///
    /// # Panics
    ///
    /// Panics for a non-positive or non-finite factor.
    #[must_use]
    pub fn derate_flow(mut self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "flow derating factor must be positive"
        );
        self.q_ref *= factor;
        self
    }

    /// Number of fans in the bank.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The reference RPM the model is anchored at.
    #[must_use]
    pub fn rpm_ref(&self) -> Rpm {
        Rpm::new(self.rpm_ref)
    }
}

impl Default for FanPowerModel {
    /// The calibrated paper-server bank.
    fn default() -> Self {
        Self::paper_server()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubic_power_law() {
        let m = FanPowerModel::new(
            1,
            Watts::new(8.0),
            Watts::ZERO,
            Rpm::new(4000.0),
            AirFlow::from_cfm(80.0),
        );
        let p_half = m.power(Rpm::new(2000.0));
        assert!((p_half.value() - 1.0).abs() < 1e-12, "8·(1/2)³ = 1 W");
    }

    #[test]
    fn linear_flow_law() {
        let m = FanPowerModel::paper_server();
        let q1 = m.flow(Rpm::new(2100.0));
        let q2 = m.flow(Rpm::new(4200.0));
        assert!((q2.value() - 2.0 * q1.value()).abs() < 1e-12);
        assert!((m.flow_per_fan(Rpm::new(4200.0)).as_cfm() - 95.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_totals() {
        let m = FanPowerModel::paper_server();
        assert_eq!(m.count(), 6);
        assert_eq!(m.rpm_ref(), Rpm::new(4200.0));
        let p_max = m.power(Rpm::new(4200.0));
        assert!(
            (p_max.value() - 33.0).abs() < 1.0,
            "max bank power {p_max} should be ≈33 W"
        );
        let p_default = m.power(Rpm::new(3300.0));
        assert!(
            p_default.value() > 15.0 && p_default.value() < 18.0,
            "default-speed bank power {p_default}"
        );
        let p_min = m.power(Rpm::new(1800.0));
        assert!(p_min.value() < 4.0, "min-speed bank power {p_min}");
    }

    #[test]
    fn negative_rpm_clamps() {
        let m = FanPowerModel::paper_server();
        assert_eq!(m.power(Rpm::new(-100.0)), m.power(Rpm::ZERO));
        assert_eq!(m.flow(Rpm::new(-100.0)), AirFlow::ZERO);
    }

    #[test]
    fn floor_power_at_zero_rpm() {
        let m = FanPowerModel::new(
            4,
            Watts::new(5.0),
            Watts::new(0.2),
            Rpm::new(4000.0),
            AirFlow::from_cfm(50.0),
        );
        assert!((m.power(Rpm::ZERO).value() - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "count must be positive")]
    fn rejects_zero_fans() {
        let _ = FanPowerModel::new(
            0,
            Watts::new(1.0),
            Watts::ZERO,
            Rpm::new(1000.0),
            AirFlow::from_cfm(10.0),
        );
    }
}
