//! Measurement-channel sensor model.

use leakctl_sim::SimRng;
use leakctl_units::SimInstant;

use crate::harness::{Csth, TelemetryError};

/// Static error characteristics of a measurement channel.
///
/// Applied as `measured = quantize(gain·true + offset + noise)`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SensorSpec {
    /// Multiplicative gain error (1.0 = ideal).
    pub gain: f64,
    /// Additive offset, in the channel's unit.
    pub offset: f64,
    /// Standard deviation of Gaussian read noise, in the channel's unit.
    pub noise_sigma: f64,
    /// Quantization step (0 disables quantization). Thermal diodes
    /// typically report in 0.5 °C or 1 °C steps.
    pub quantization: f64,
}

impl SensorSpec {
    /// An ideal, noise-free channel.
    #[must_use]
    pub fn ideal() -> Self {
        Self {
            gain: 1.0,
            offset: 0.0,
            noise_sigma: 0.0,
            quantization: 0.0,
        }
    }

    /// A CPU thermal-diode channel: ±0.25 °C noise, 0.5 °C steps.
    #[must_use]
    pub fn cpu_thermal_diode() -> Self {
        Self {
            gain: 1.0,
            offset: 0.0,
            noise_sigma: 0.25,
            quantization: 0.5,
        }
    }

    /// A DIMM SPD thermal sensor: 1 °C steps, slightly noisier.
    #[must_use]
    pub fn dimm_thermal() -> Self {
        Self {
            gain: 1.0,
            offset: 0.0,
            noise_sigma: 0.4,
            quantization: 1.0,
        }
    }

    /// A system power meter: 0.5 % gain error band represented as ±0.2 %
    /// noise, 1 W steps.
    #[must_use]
    pub fn system_power_meter() -> Self {
        Self {
            gain: 1.0,
            offset: 0.0,
            noise_sigma: 1.0,
            quantization: 1.0,
        }
    }

    /// Whether the channel draws noise (σ > 0).
    fn is_noisy(&self) -> bool {
        self.noise_sigma > 0.0
    }

    /// Whether the channel reads in whole steps (`q > 0`).
    pub(crate) fn is_quantized(&self) -> bool {
        self.quantization > 0.0
    }

    /// The reading of `true_value` counted in quantization steps:
    /// `round((gain·true + offset + σ·z) / q)`, or the unquantized value
    /// when `q = 0`, with `z` the next standard-normal value of `draws` —
    /// taken only when σ > 0. The reading is [`Self::reading`] of the
    /// count. The one measurement function every sensor shares.
    #[inline]
    fn count(&self, true_value: f64, draws: &mut std::slice::Iter<'_, f64>) -> f64 {
        let mut v = self.gain * true_value + self.offset;
        if self.is_noisy() {
            v += self.noise_sigma * draws.next().expect("one draw per noisy channel");
        }
        if self.is_quantized() {
            v = (v / self.quantization).round();
        }
        v
    }

    /// The reading a [`Self::count`] stands for: `count × q`, or the
    /// count itself when `q = 0`.
    #[inline]
    fn reading(&self, count: f64) -> f64 {
        if self.is_quantized() {
            count * self.quantization
        } else {
            count
        }
    }
}

impl Default for SensorSpec {
    /// The ideal channel.
    fn default() -> Self {
        Self::ideal()
    }
}

/// Gaussian draws precomputed per refill: one block serves that many
/// frames. A refill draws every noisy channel's block in one
/// [`SimRng::fill_gaussian_streams`] batch, whose cost is libm's `ln`
/// and `cos` (see there for why it reorders the `cos` calls). No
/// channel's stream moves: the buffered values are exactly the next
/// draws of that channel's RNG, in order.
const NOISE_BLOCK: usize = 16;

/// A bank of sensors measured in lockstep: one reading per channel per
/// frame, the way a CSTH poll samples every channel together.
///
/// Each channel has its [`SensorSpec`] and its own forked RNG, so adding
/// or removing one channel never changes the noise another sees — a
/// requirement for reproducible experiments. Noise is drawn in blocks
/// for the channels with σ > 0 only, stored draw-major — row `k` holds
/// the `k`-th draw of every noisy channel in channel order — behind one
/// shared frame cursor: every channel is measured once per frame, so
/// all cursors would move together anyway. The readings are
/// byte-identical to one `next_gaussian` per noisy reading.
/// [`SensorBank::measure_into`] records a frame straight into a
/// [`Csth`] whose channels were registered with the same specs: a
/// quantized channel's reading lands in the open block as its step
/// count, with no f64 frame in between.
///
/// # Example
///
/// ```
/// use leakctl_sim::SimRng;
/// use leakctl_telemetry::{Csth, SensorBank, SensorSpec, CSTH_POLL_PERIOD};
/// use leakctl_units::SimInstant;
///
/// let mut rng = SimRng::seed(1);
/// let mut bank = SensorBank::new();
/// bank.push(SensorSpec::cpu_thermal_diode(), rng.fork("cpu0"));
/// bank.push(SensorSpec::ideal(), SimRng::seed(0));
/// let mut frame = [0.0; 2];
/// bank.measure_frame(&[70.0, 1.1], &mut frame);
/// assert!((frame[0] - 70.0).abs() < 2.0);
/// assert_eq!(frame[1], 1.1);
///
/// // The same sensors measuring into a capture, registered in order.
/// let mut csth = Csth::new(CSTH_POLL_PERIOD);
/// let cpu0 = csth
///     .add_measured_channel("cpu0_temp", "C", &SensorSpec::cpu_thermal_diode())
///     .unwrap();
/// csth.add_channel("cpu0_vdd", "V").unwrap();
/// bank.measure_into(&mut csth, SimInstant::ZERO, &[70.0, 1.1]).unwrap();
/// let (_, reading) = csth.last(cpu0).unwrap();
/// assert_eq!(reading % 0.5, 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SensorBank {
    specs: Vec<SensorSpec>,
    rngs: Vec<SimRng>,
    /// `NOISE_BLOCK` rows of one draw per noisy channel.
    noise: Vec<f64>,
    /// Frames measured so far; a block starts every `NOISE_BLOCK`.
    frames: usize,
}

impl SensorBank {
    /// An empty bank.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a channel with its own noise stream. A σ = 0 channel
    /// never draws from `rng`.
    ///
    /// # Panics
    ///
    /// Panics once a frame has been measured: every channel shares the
    /// block cursor.
    pub fn push(&mut self, spec: SensorSpec, rng: SimRng) {
        assert!(
            self.frames == 0,
            "sensors join a bank before its first frame"
        );
        self.specs.push(spec);
        self.rngs.push(rng);
    }

    /// Draws the next block for every noisy channel.
    fn refill(&mut self) {
        let noisy = self.specs.iter().filter(|s| s.is_noisy()).count();
        self.noise.resize(NOISE_BLOCK * noisy, 0.0);
        let rngs = self.specs.iter().zip(&mut self.rngs);
        SimRng::fill_gaussian_streams::<NOISE_BLOCK>(
            rngs.filter(|(spec, _)| spec.is_noisy()).map(|(_, rng)| rng),
            &mut self.noise,
        );
    }

    /// The sensors and the noise draws of the next frame, refilling the
    /// noise at a block's first frame.
    fn next_frame(&mut self) -> (&[SensorSpec], std::slice::Iter<'_, f64>) {
        let k = self.frames % NOISE_BLOCK;
        if k == 0 {
            self.refill();
        }
        self.frames += 1;
        let row = self.noise.len() / NOISE_BLOCK;
        (&self.specs, self.noise[k * row..(k + 1) * row].iter())
    }

    /// Measures one frame: `out[c]` is channel `c`'s reading of
    /// `truth[c]`.
    ///
    /// # Panics
    ///
    /// Panics when `truth` or `out` does not hold one value per channel.
    pub fn measure_frame(&mut self, truth: &[f64], out: &mut [f64]) {
        let n = self.specs.len();
        assert!(
            truth.len() == n && out.len() == n,
            "a frame holds one value per channel"
        );
        let (specs, mut draws) = self.next_frame();
        for ((o, &x), spec) in out.iter_mut().zip(truth).zip(specs) {
            *o = spec.reading(spec.count(x, &mut draws));
        }
    }

    /// Measures one frame and records it in `csth` at `at`, writing each
    /// quantized channel's step count straight into the capture's open
    /// block. Reads back exactly what [`Self::measure_frame`] would have
    /// returned, and draws the same noise.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::TimeRegression`] when `at` precedes the
    /// capture's last frame and [`TelemetryError::NonFinite`] naming the
    /// first non-finite reading; nothing is recorded, but the frame's
    /// noise is spent.
    ///
    /// # Panics
    ///
    /// Panics when `truth` or `csth` does not hold one value per sensor,
    /// or when `csth` splits its channels into quantized and raw ones
    /// differently from this bank. The channels must be registered with
    /// this bank's specs, in order, through
    /// [`Csth::add_measured_channel`]; debug builds check every step.
    pub fn measure_into(
        &mut self,
        csth: &mut Csth,
        at: SimInstant,
        truth: &[f64],
    ) -> Result<(), TelemetryError> {
        assert!(
            truth.len() == self.specs.len() && csth.channel_count() == self.specs.len(),
            "a frame holds one value per channel"
        );
        let (specs, mut draws) = self.next_frame();
        csth.write_frame(at, |channels, block| {
            debug_assert!(
                channels.iter().zip(specs).all(|(channel, spec)| {
                    channel.column.step().to_bits() == spec.quantization.max(0.0).to_bits()
                }),
                "channels registered with this bank's specs"
            );
            for (c, (&x, spec)) in truth.iter().zip(specs).enumerate() {
                let count = spec.count(x, &mut draws);
                let finite = if spec.is_quantized() {
                    block.push_count(count, spec.quantization)
                } else {
                    block.raw.push(count);
                    count.is_finite()
                };
                if !finite {
                    return Some(c);
                }
            }
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-channel bank as a reading function.
    fn sensor(spec: SensorSpec, rng: SimRng) -> impl FnMut(f64) -> f64 {
        let mut bank = SensorBank::new();
        bank.push(spec, rng);
        move |true_value| {
            let mut out = [0.0];
            bank.measure_frame(&[true_value], &mut out);
            out[0]
        }
    }

    #[test]
    fn ideal_sensor_is_identity() {
        let mut s = sensor(SensorSpec::ideal(), SimRng::seed(0));
        for v in [-10.0, 0.0, 55.5, 100.0] {
            assert_eq!(s(v), v);
        }
    }

    #[test]
    fn gain_and_offset_applied() {
        let spec = SensorSpec {
            gain: 1.02,
            offset: -0.5,
            noise_sigma: 0.0,
            quantization: 0.0,
        };
        let mut s = sensor(spec, SimRng::seed(0));
        assert!((s(100.0) - 101.5).abs() < 1e-12);
    }

    #[test]
    fn quantization_steps() {
        let spec = SensorSpec {
            quantization: 0.5,
            ..SensorSpec::ideal()
        };
        let mut s = sensor(spec, SimRng::seed(0));
        assert_eq!(s(70.26), 70.5);
        assert_eq!(s(70.24), 70.0);
    }

    #[test]
    fn block_buffered_noise_matches_per_call_draws() {
        // The buffered stream must be byte-identical to drawing one
        // gaussian per measurement from the same forked RNG.
        let mut rng = SimRng::seed(77);
        let spec = SensorSpec::cpu_thermal_diode();
        let child = rng.fork("cpu0");
        let mut s = sensor(spec, child.clone());
        let mut reference_rng = child;
        for i in 0..100 {
            let true_t = 50.0 + (i as f64) * 0.1;
            let got = s(true_t);
            let mut want =
                spec.gain * true_t + spec.offset + spec.noise_sigma * reference_rng.next_gaussian();
            want = (want / spec.quantization).round() * spec.quantization;
            assert_eq!(got.to_bits(), want.to_bits(), "sample {i}");
        }
    }

    #[test]
    fn noise_statistics() {
        let spec = SensorSpec {
            noise_sigma: 0.25,
            ..SensorSpec::ideal()
        };
        let mut s = sensor(spec, SimRng::seed(42));
        let n = 20_000;
        let readings: Vec<f64> = (0..n).map(|_| s(50.0)).collect();
        let mean = readings.iter().sum::<f64>() / f64::from(n);
        let var = readings.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / f64::from(n);
        assert!((mean - 50.0).abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.25).abs() < 0.01, "sigma {}", var.sqrt());
    }

    #[test]
    fn independent_noise_streams() {
        let mut rng = SimRng::seed(9);
        let mut bank = SensorBank::new();
        bank.push(SensorSpec::cpu_thermal_diode(), rng.fork("a"));
        bank.push(SensorSpec::cpu_thermal_diode(), rng.fork("b"));
        let mut frame = [0.0; 2];
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        for _ in 0..32 {
            bank.measure_frame(&[60.0, 60.0], &mut frame);
            ra.push(frame[0]);
            rb.push(frame[1]);
        }
        assert_ne!(ra, rb, "distinct sensors must have distinct noise");
    }

    #[test]
    fn preset_specs_are_sane() {
        for spec in [
            SensorSpec::cpu_thermal_diode(),
            SensorSpec::dimm_thermal(),
            SensorSpec::system_power_meter(),
        ] {
            assert!(spec.gain > 0.9 && spec.gain < 1.1);
            assert!(spec.noise_sigma >= 0.0);
            assert!(spec.quantization >= 0.0);
        }
        assert_eq!(SensorSpec::default(), SensorSpec::ideal());
    }
}
