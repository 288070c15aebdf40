//! Leakage-power models: the paper's empirical exponential form and a
//! physics-grounded ground truth for the digital twin.

use leakctl_units::{Celsius, Watts};

use crate::{DEFAULT_LEAK_OFFSET, PAPER_K2, PAPER_K3};

/// The paper's empirical leakage model `P_leak = C + k2 · e^(k3·T)`,
/// with `T` in °C.
///
/// This is the *analysis* form: it is what the characterization pipeline
/// fits to telemetry, and what the LUT builder evaluates when minimizing
/// `P_leak + P_fan`.
///
/// # Example
///
/// ```
/// use leakctl_power::EmpiricalLeakage;
/// use leakctl_units::Celsius;
///
/// let m = EmpiricalLeakage::paper_fit();
/// let p55 = m.power(Celsius::new(55.0));
/// let p85 = m.power(Celsius::new(85.0));
/// assert!(p85.value() > p55.value(), "leakage grows with temperature");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EmpiricalLeakage {
    offset: f64,
    k2: f64,
    k3: f64,
}

impl EmpiricalLeakage {
    /// Creates a model `P = offset + k2·e^(k3·T)`.
    ///
    /// # Panics
    ///
    /// Panics when `k2 < 0`, `k3 <= 0`, or any parameter is non-finite —
    /// leakage must be positive and increasing in temperature.
    #[must_use]
    pub fn new(offset: f64, k2: f64, k3: f64) -> Self {
        assert!(
            offset.is_finite() && k2.is_finite() && k3.is_finite(),
            "leakage parameters must be finite"
        );
        assert!(k2 >= 0.0, "k2 must be non-negative");
        assert!(k3 > 0.0, "k3 must be positive");
        Self { offset, k2, k3 }
    }

    /// The paper's fitted constants (`k2 = 0.3231`, `k3 = 0.04749`) with
    /// the calibration offset [`DEFAULT_LEAK_OFFSET`](crate::DEFAULT_LEAK_OFFSET).
    #[must_use]
    pub fn paper_fit() -> Self {
        Self::new(DEFAULT_LEAK_OFFSET, PAPER_K2, PAPER_K3)
    }

    /// Leakage power at die temperature `t`.
    #[must_use]
    pub fn power(&self, t: Celsius) -> Watts {
        Watts::new(self.offset + self.k2 * (self.k3 * t.degrees()).exp())
    }

    /// The constant offset `C`.
    #[must_use]
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// The scale factor `k2`.
    #[must_use]
    pub fn k2(&self) -> f64 {
        self.k2
    }

    /// The exponent `k3` (1/°C).
    #[must_use]
    pub fn k3(&self) -> f64 {
        self.k3
    }
}

impl Default for EmpiricalLeakage {
    /// The paper's fitted model.
    fn default() -> Self {
        Self::paper_fit()
    }
}

/// Physics-grounded leakage used as the digital twin's ground truth.
///
/// Subthreshold leakage in scaled CMOS follows
/// `I_sub ∝ T² · e^((a − b/T))` in absolute temperature; this model uses
/// the standard compact form
///
/// ```text
/// P(T) = p_ref · (T_K / T_ref_K)² · e^(β·(T_K − T_ref_K)) · σ
/// ```
///
/// where `σ` is a per-die process-variation multiplier. It deliberately
/// differs in functional form from [`EmpiricalLeakage`] (the `T²` term
/// adds curvature) so that the characterization pipeline's fit is a real
/// inference problem, as it was for the paper's authors measuring real
/// silicon.
///
/// # Example
///
/// ```
/// use leakctl_power::PhysicalLeakage;
/// use leakctl_units::Celsius;
///
/// let m = PhysicalLeakage::calibrated(9.0);
/// let p = m.power(Celsius::new(70.0));
/// assert!(p.value() > 8.0 && p.value() < 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PhysicalLeakage {
    p_ref: f64,
    t_ref_k: f64,
    beta: f64,
    process_sigma: f64,
}

impl PhysicalLeakage {
    /// Reference temperature for the calibrated model, °C.
    pub const T_REF_C: f64 = 70.0;

    /// Creates a model with reference power `p_ref` (W) at `t_ref`,
    /// exponential slope `beta` (1/K), and process multiplier
    /// `process_sigma`.
    ///
    /// # Panics
    ///
    /// Panics for non-positive `p_ref`, `process_sigma`, non-positive
    /// `beta`, or non-finite inputs.
    #[must_use]
    pub fn new(p_ref: Watts, t_ref: Celsius, beta: f64, process_sigma: f64) -> Self {
        assert!(
            p_ref.value() > 0.0 && p_ref.is_finite(),
            "reference leakage must be positive"
        );
        assert!(beta > 0.0 && beta.is_finite(), "beta must be positive");
        assert!(
            process_sigma > 0.0 && process_sigma.is_finite(),
            "process multiplier must be positive"
        );
        Self {
            p_ref: p_ref.value(),
            t_ref_k: t_ref.as_kelvin().kelvin(),
            beta,
            process_sigma,
        }
    }

    /// A model calibrated so its 45–90 °C behaviour tracks the paper's
    /// empirical curve: `p_ref` watts at 70 °C and an exponential slope
    /// matched to `k3` (the `T²` factor supplies the remaining, slightly
    /// non-exponential curvature).
    #[must_use]
    pub fn calibrated(p_ref_watts: f64) -> Self {
        // Slope chosen so d(ln P)/dT at 70 °C ≈ k3 = 0.04749:
        // d(ln P)/dT = 2/T_K + beta  →  beta = k3 − 2/343.15 ≈ 0.04166.
        let beta = crate::PAPER_K3 - 2.0 / (Self::T_REF_C + 273.15);
        Self::new(
            Watts::new(p_ref_watts),
            Celsius::new(Self::T_REF_C),
            beta,
            1.0,
        )
    }

    /// Returns a copy with a different process-variation multiplier
    /// (e.g. per-socket spread).
    #[must_use]
    pub fn with_process_sigma(mut self, sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite());
        self.process_sigma = sigma;
        self
    }

    /// Leakage power at die temperature `t`.
    #[must_use]
    pub fn power(&self, t: Celsius) -> Watts {
        let tk = t.as_kelvin().kelvin();
        let ratio = tk / self.t_ref_k;
        Watts::new(
            self.p_ref
                * ratio
                * ratio
                * (self.beta * (tk - self.t_ref_k)).exp()
                * self.process_sigma,
        )
    }

    /// The process-variation multiplier.
    #[must_use]
    pub fn process_sigma(&self) -> f64 {
        self.process_sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_matches_hand_computation() {
        let m = EmpiricalLeakage::new(10.0, 0.3231, 0.04749);
        let p = m.power(Celsius::new(70.0));
        let expect = 10.0 + 0.3231 * (0.04749_f64 * 70.0).exp();
        assert!((p.value() - expect).abs() < 1e-12);
        assert_eq!(m.offset(), 10.0);
        assert_eq!(m.k2(), 0.3231);
        assert_eq!(m.k3(), 0.04749);
    }

    #[test]
    fn empirical_monotone_in_temperature() {
        let m = EmpiricalLeakage::paper_fit();
        let mut prev = m.power(Celsius::new(20.0));
        for t in [30.0, 45.0, 60.0, 75.0, 90.0] {
            let p = m.power(Celsius::new(t));
            assert!(p > prev);
            prev = p;
        }
    }

    #[test]
    fn empirical_default_is_paper() {
        assert_eq!(EmpiricalLeakage::default(), EmpiricalLeakage::paper_fit());
    }

    #[test]
    #[should_panic(expected = "k3 must be positive")]
    fn empirical_rejects_bad_k3() {
        let _ = EmpiricalLeakage::new(0.0, 1.0, 0.0);
    }

    #[test]
    fn physical_reference_point() {
        let m = PhysicalLeakage::calibrated(9.0);
        let p = m.power(Celsius::new(PhysicalLeakage::T_REF_C));
        assert!((p.value() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn physical_local_slope_matches_k3() {
        let m = PhysicalLeakage::calibrated(9.0);
        let dt = 0.01;
        let p0 = m.power(Celsius::new(70.0 - dt)).value();
        let p1 = m.power(Celsius::new(70.0 + dt)).value();
        let dlnp_dt = (p1.ln() - p0.ln()) / (2.0 * dt);
        assert!(
            (dlnp_dt - crate::PAPER_K3).abs() < 1e-4,
            "log-slope {dlnp_dt} vs k3 {}",
            crate::PAPER_K3
        );
    }

    #[test]
    fn physical_process_variation_scales_power() {
        let base = PhysicalLeakage::calibrated(9.0);
        let hot = base.with_process_sigma(1.2);
        let t = Celsius::new(80.0);
        assert!((hot.power(t).value() - 1.2 * base.power(t).value()).abs() < 1e-12);
        assert!((hot.process_sigma() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn physical_monotone_and_convex() {
        let m = PhysicalLeakage::calibrated(9.0);
        let temps: Vec<f64> = (40..=90).step_by(5).map(f64::from).collect();
        let powers: Vec<f64> = temps
            .iter()
            .map(|&t| m.power(Celsius::new(t)).value())
            .collect();
        for w in powers.windows(2) {
            assert!(w[1] > w[0], "monotone");
        }
        for w in powers.windows(3) {
            assert!(w[2] - w[1] > w[1] - w[0], "convex");
        }
    }

    #[test]
    fn physical_tracks_empirical_shape_over_fit_range() {
        // The ground truth should stay within ~1.5 W of the paper's
        // empirical curve (offset removed) over the 45–90 °C range used
        // for fitting.
        let phys = PhysicalLeakage::calibrated(9.0);
        let emp = EmpiricalLeakage::new(0.0, PAPER_K2, PAPER_K3);
        for t in 45..=90 {
            let tp = phys.power(Celsius::new(f64::from(t))).value();
            let te = emp.power(Celsius::new(f64::from(t))).value();
            assert!(
                (tp - te).abs() < 1.6,
                "at {t} °C: physical {tp:.2} W vs empirical {te:.2} W"
            );
        }
    }
}
