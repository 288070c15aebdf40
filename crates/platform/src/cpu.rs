//! Per-socket CPU power model.

use leakctl_power::PhysicalLeakage;
use leakctl_units::{Amps, Celsius, Utilization, Volts, Watts};

/// One processor socket's power behaviour: idle baseline, linear dynamic
/// component, and physics-grounded leakage with per-die process
/// variation.
///
/// The socket exposes the quantities the paper's telemetry reports —
/// total socket power and per-core voltage/current — while keeping the
/// leakage/dynamic split internal (the paper's authors had to *infer*
/// that split from measurements; so does our characterization pipeline).
///
/// # Example
///
/// ```
/// use leakctl_platform::CpuSocket;
/// use leakctl_units::{Celsius, Utilization, Watts};
///
/// let socket = CpuSocket::new(0, 16, Watts::new(55.0), 0.1558, 4.5, 4.5, 1.0, 1.05);
/// let idle = socket.power(Utilization::IDLE, Celsius::new(45.0));
/// let busy = socket.power(Utilization::FULL, Celsius::new(70.0));
/// assert!(busy > idle);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSocket {
    id: usize,
    cores: usize,
    idle: Watts,
    dynamic_slope_w_per_pct: f64,
    const_leak: Watts,
    leakage: PhysicalLeakage,
    voltage: Volts,
}

impl CpuSocket {
    /// Creates a socket model.
    ///
    /// `dynamic_slope_w_per_pct` is this socket's share of the server
    /// dynamic slope; `const_leak_w` and `leak_ref_w` set the
    /// temperature-independent and 70 °C-reference leakage; `sigma` is
    /// the die's process-variation multiplier.
    ///
    /// # Panics
    ///
    /// Panics for zero cores or non-positive voltage (leakage parameter
    /// validation happens inside [`PhysicalLeakage`]).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        cores: usize,
        idle: Watts,
        dynamic_slope_w_per_pct: f64,
        const_leak_w: f64,
        leak_ref_w: f64,
        sigma: f64,
        voltage: f64,
    ) -> Self {
        assert!(cores > 0, "socket must have cores");
        assert!(voltage > 0.0, "core voltage must be positive");
        Self {
            id,
            cores,
            idle,
            dynamic_slope_w_per_pct,
            const_leak: Watts::new(const_leak_w),
            leakage: PhysicalLeakage::calibrated(leak_ref_w).with_process_sigma(sigma),
            voltage: Volts::new(voltage),
        }
    }

    /// The socket index.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Core count.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Total socket power at the given activity and die temperature:
    /// `idle + dynamic + leakage`, summed left to right, exactly as
    /// [`CpuSocket::power_with_leakage`] sums it. A caller that already
    /// holds [`CpuSocket::leakage_power`] at `die_temp` gets the same
    /// bits from that function without a second exponential.
    #[must_use]
    pub fn power(&self, activity: Utilization, die_temp: Celsius) -> Watts {
        self.power_with_leakage(activity, self.leakage_power(die_temp))
    }

    /// Total socket power at the given activity with the leakage term
    /// already evaluated (`leakage` = [`CpuSocket::leakage_power`] at
    /// the die temperature): `idle + dynamic + leakage`, in that order.
    #[must_use]
    pub fn power_with_leakage(&self, activity: Utilization, leakage: Watts) -> Watts {
        self.idle + self.dynamic_power(activity) + leakage
    }

    /// The dynamic (switching) component only.
    #[must_use]
    pub fn dynamic_power(&self, activity: Utilization) -> Watts {
        Watts::new(self.dynamic_slope_w_per_pct * activity.as_percent())
    }

    /// The leakage component only (constant + temperature-dependent).
    #[must_use]
    pub fn leakage_power(&self, die_temp: Celsius) -> Watts {
        self.const_leak + self.leakage.power(die_temp)
    }

    /// Core supply voltage (what the per-core V channels report).
    #[must_use]
    pub fn core_voltage(&self) -> Volts {
        self.voltage
    }

    /// Current drawn by one core, assuming the even spread LoadGen
    /// guarantees (what the per-core I channels report).
    #[must_use]
    pub fn core_current(&self, activity: Utilization, die_temp: Celsius) -> Amps {
        let per_core = self.power(activity, die_temp) / self.cores as f64;
        per_core.current_at(self.voltage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn socket() -> CpuSocket {
        CpuSocket::new(0, 16, Watts::new(55.0), 0.1558, 4.5, 4.5, 1.0, 1.05)
    }

    #[test]
    fn power_decomposition_sums() {
        let s = socket();
        let u = Utilization::from_percent(60.0).unwrap();
        let t = Celsius::new(65.0);
        let total = s.power(u, t);
        let parts = Watts::new(55.0) + s.dynamic_power(u) + s.leakage_power(t);
        assert!((total.value() - parts.value()).abs() < 1e-12);
        // A carried leakage term gives the same bits.
        let carried = s.power_with_leakage(u, s.leakage_power(t));
        assert_eq!(carried.value().to_bits(), total.value().to_bits());
    }

    #[test]
    fn dynamic_is_linear() {
        let s = socket();
        let p50 = s.dynamic_power(Utilization::from_percent(50.0).unwrap());
        let p100 = s.dynamic_power(Utilization::FULL);
        assert!((p100.value() - 2.0 * p50.value()).abs() < 1e-12);
        assert!((p100.value() - 15.58).abs() < 1e-9);
    }

    #[test]
    fn leakage_has_constant_floor() {
        let s = socket();
        // Even very cold, leakage ≥ the constant part.
        let cold = s.leakage_power(Celsius::new(0.0));
        assert!(cold.value() >= 4.5);
        let hot = s.leakage_power(Celsius::new(85.0));
        assert!(hot > cold);
    }

    #[test]
    fn reference_leakage_at_70c() {
        let s = socket();
        let leak = s.leakage_power(Celsius::new(70.0));
        assert!((leak.value() - 9.0).abs() < 1e-9, "4.5 const + 4.5 ref");
    }

    #[test]
    fn core_current_scales_with_load() {
        let s = socket();
        let i_idle = s.core_current(Utilization::IDLE, Celsius::new(45.0));
        let i_busy = s.core_current(Utilization::FULL, Celsius::new(70.0));
        assert!(i_busy > i_idle);
        // Socket power / (cores · V) round-trips.
        let p = s.power(Utilization::FULL, Celsius::new(70.0));
        let expect = p.value() / (16.0 * 1.05);
        assert!((i_busy.value() - expect).abs() < 1e-9);
        assert_eq!(s.core_voltage(), Volts::new(1.05));
        assert_eq!(s.cores(), 16);
        assert_eq!(s.id(), 0);
    }

    #[test]
    fn process_variation_affects_leakage_only() {
        let nominal = socket();
        let leaky = CpuSocket::new(0, 16, Watts::new(55.0), 0.1558, 4.5, 4.5, 1.2, 1.05);
        let t = Celsius::new(75.0);
        let u = Utilization::FULL;
        assert_eq!(nominal.dynamic_power(u), leaky.dynamic_power(u));
        assert!(leaky.leakage_power(t) > nominal.leakage_power(t));
    }
}
