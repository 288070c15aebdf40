//! Reference values reported by the paper, for side-by-side comparison
//! in the reproduction binaries.

/// Fitted active-power slope, W/%.
pub const K1: f64 = 0.4452;

/// Fitted leakage scale, W.
pub const K2: f64 = 0.3231;

/// Fitted leakage exponent, 1/°C.
pub const K3: f64 = 0.04749;

/// Reported RMS fitting error, W.
pub const FIT_RMSE_W: f64 = 2.243;

/// Reported fitting accuracy, percent.
pub const FIT_ACCURACY_PCT: f64 = 98.0;

/// Ambient temperature of the isolated test environment, °C.
pub const AMBIENT_C: f64 = 24.0;

/// Server critical temperature threshold, °C.
pub const CRITICAL_TEMP_C: f64 = 90.0;

/// Targeted maximum operational temperature, °C.
pub const TARGET_MAX_TEMP_C: f64 = 75.0;

/// Fan speeds explored in the characterization sweep, RPM.
pub const FAN_SPEEDS_RPM: [f64; 5] = [1800.0, 2400.0, 3000.0, 3600.0, 4200.0];

/// Utilization levels explored in the characterization sweep, percent.
pub const UTILIZATION_LEVELS_PCT: [f64; 8] = [10.0, 25.0, 40.0, 50.0, 60.0, 75.0, 90.0, 100.0];

/// Approximate default (vendor) fan speed, RPM.
pub const DEFAULT_RPM: f64 = 3300.0;

/// Fan+leakage optimum temperature reported for 100 % utilization, °C.
pub const OPTIMUM_TEMP_C: f64 = 70.0;

/// Fan speed at the 100 %-utilization optimum, RPM.
pub const OPTIMUM_RPM: f64 = 2400.0;

/// One row of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperTable1Row {
    /// Test index (1–4).
    pub test: u8,
    /// Control scheme name.
    pub scheme: &'static str,
    /// Total energy, kWh.
    pub energy_kwh: f64,
    /// Net savings vs. the default scheme, percent (`None` for the
    /// baseline rows).
    pub net_savings_pct: Option<f64>,
    /// Peak power, W.
    pub peak_power_w: f64,
    /// Maximum temperature, °C.
    pub max_temp_c: f64,
    /// Number of fan speed changes.
    pub fan_changes: u32,
    /// Average fan speed, RPM.
    pub avg_rpm: f64,
}

/// The paper's Table I, verbatim.
pub const TABLE1: [PaperTable1Row; 12] = [
    PaperTable1Row {
        test: 1,
        scheme: "Default",
        energy_kwh: 0.6695,
        net_savings_pct: None,
        peak_power_w: 710.0,
        max_temp_c: 61.0,
        fan_changes: 0,
        avg_rpm: 3300.0,
    },
    PaperTable1Row {
        test: 1,
        scheme: "Bang",
        energy_kwh: 0.6570,
        net_savings_pct: Some(6.8),
        peak_power_w: 715.0,
        max_temp_c: 75.0,
        fan_changes: 6,
        avg_rpm: 2089.0,
    },
    PaperTable1Row {
        test: 1,
        scheme: "LUT",
        energy_kwh: 0.6556,
        net_savings_pct: Some(7.7),
        peak_power_w: 705.0,
        max_temp_c: 73.0,
        fan_changes: 6,
        avg_rpm: 2117.0,
    },
    PaperTable1Row {
        test: 2,
        scheme: "Default",
        energy_kwh: 0.6857,
        net_savings_pct: None,
        peak_power_w: 720.0,
        max_temp_c: 61.0,
        fan_changes: 0,
        avg_rpm: 3300.0,
    },
    PaperTable1Row {
        test: 2,
        scheme: "Bang",
        energy_kwh: 0.6856,
        net_savings_pct: Some(0.05),
        peak_power_w: 722.0,
        max_temp_c: 76.0,
        fan_changes: 10,
        avg_rpm: 2173.0,
    },
    PaperTable1Row {
        test: 2,
        scheme: "LUT",
        energy_kwh: 0.6685,
        net_savings_pct: Some(8.7),
        peak_power_w: 705.0,
        max_temp_c: 75.0,
        fan_changes: 8,
        avg_rpm: 2181.0,
    },
    PaperTable1Row {
        test: 3,
        scheme: "Default",
        energy_kwh: 0.6284,
        net_savings_pct: None,
        peak_power_w: 720.0,
        max_temp_c: 60.0,
        fan_changes: 0,
        avg_rpm: 3300.0,
    },
    PaperTable1Row {
        test: 3,
        scheme: "Bang",
        energy_kwh: 0.6253,
        net_savings_pct: Some(2.0),
        peak_power_w: 722.0,
        max_temp_c: 77.0,
        fan_changes: 14,
        avg_rpm: 2042.0,
    },
    PaperTable1Row {
        test: 3,
        scheme: "LUT",
        energy_kwh: 0.6226,
        net_savings_pct: Some(3.9),
        peak_power_w: 710.0,
        max_temp_c: 69.0,
        fan_changes: 12,
        avg_rpm: 2161.0,
    },
    PaperTable1Row {
        test: 4,
        scheme: "Default",
        energy_kwh: 0.6160,
        net_savings_pct: None,
        peak_power_w: 720.0,
        max_temp_c: 62.0,
        fan_changes: 0,
        avg_rpm: 3300.0,
    },
    PaperTable1Row {
        test: 4,
        scheme: "Bang",
        energy_kwh: 0.6101,
        net_savings_pct: Some(4.7),
        peak_power_w: 722.0,
        max_temp_c: 76.0,
        fan_changes: 10,
        avg_rpm: 1936.0,
    },
    PaperTable1Row {
        test: 4,
        scheme: "LUT",
        energy_kwh: 0.6071,
        net_savings_pct: Some(6.9),
        peak_power_w: 710.0,
        max_temp_c: 74.0,
        fan_changes: 12,
        avg_rpm: 1968.0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_all_rows() {
        assert_eq!(TABLE1.len(), 12);
        for test in 1..=4u8 {
            let rows: Vec<_> = TABLE1.iter().filter(|r| r.test == test).collect();
            assert_eq!(rows.len(), 3);
            assert_eq!(rows[0].scheme, "Default");
            assert!(rows[0].net_savings_pct.is_none());
        }
    }

    #[test]
    fn lut_always_beats_bang_in_paper() {
        for test in 1..=4u8 {
            let get = |scheme: &str| {
                TABLE1
                    .iter()
                    .find(|r| r.test == test && r.scheme == scheme)
                    .expect("row exists")
            };
            assert!(get("LUT").energy_kwh <= get("Bang").energy_kwh);
            assert!(get("Bang").energy_kwh <= get("Default").energy_kwh);
        }
    }
}
