//! Property-based tests for telemetry storage and sensors.

use leakctl_sim::SimRng;
use leakctl_telemetry::{
    Csth, SensorBank, SensorSpec, TelemetryError, TimeSeries, CSTH_POLL_PERIOD,
};
use leakctl_units::SimInstant;
use proptest::prelude::*;

/// A flat, frame-major reference capture: `values[frame · n + channel]`.
#[derive(Clone)]
struct FlatCapture {
    n: usize,
    times: Vec<SimInstant>,
    values: Vec<f64>,
}

impl FlatCapture {
    fn record(&mut self, csth: &mut Csth, at: SimInstant, frame: &[f64]) {
        csth.record_frame(at, frame).expect("valid frame");
        self.times.push(at);
        self.values.extend_from_slice(frame);
    }

    fn column(&self, c: usize, frames: core::ops::Range<usize>) -> Vec<f64> {
        frames.map(|f| self.values[f * self.n + c]).collect()
    }

    /// The channel as a [`TimeSeries`]: one flat block of stride 1.
    fn series(&self, c: usize) -> TimeSeries {
        let mut s = TimeSeries::new();
        for (f, &at) in self.times.iter().enumerate() {
            s.push(at, self.values[f * self.n + c]).expect("push");
        }
        s
    }

    /// Checks that `csth` reads back exactly this capture, bit for bit.
    /// `probe` picks window bounds.
    fn check(&self, csth: &Csth, probe: (usize, usize)) -> Result<(), TestCaseError> {
        let frames = self.times.len();
        prop_assert_eq!(csth.frame_count(), frames);
        prop_assert_eq!(csth.sample_count(), frames * self.n);
        let (lo, hi) = (probe.0 % (frames + 1), probe.1 % (frames + 1));
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let bound = |f: usize| {
            self.times
                .get(f)
                .copied()
                .unwrap_or(SimInstant::from_millis(u64::MAX))
        };
        // Repeated timestamps can widen the window's frame range.
        let (from, to) = (bound(lo), bound(hi));
        let first = self.times.partition_point(|&t| t < from);
        let end = self.times.partition_point(|&t| t < to).max(first);
        for (c, id) in csth.channels().enumerate() {
            let series = csth.series(id);
            let flat = self.series(c);
            let flat = flat.view();
            prop_assert_eq!(series.times(), &self.times[..]);
            prop_assert!(
                series
                    .values()
                    .map(f64::to_bits)
                    .eq(self.column(c, 0..frames).into_iter().map(f64::to_bits)),
                "channel {}",
                c
            );
            prop_assert_eq!(series.values().len(), frames);
            let last = self
                .times
                .last()
                .map(|&t| (t, self.values[(frames - 1) * self.n + c].to_bits()));
            let bits = |s: Option<(SimInstant, f64)>| s.map(|(t, v)| (t, v.to_bits()));
            prop_assert_eq!(bits(csth.last(id)), last);
            prop_assert_eq!(bits(series.last()), last);
            let window = series.window(from, to);
            prop_assert!(
                window.values().eq(self.column(c, first..end)),
                "window {}..{}",
                first,
                end
            );
            prop_assert_eq!(window.times(), &self.times[first..end]);
            prop_assert_eq!(window.last(), flat.window(from, to).last());
            prop_assert_eq!(
                series.mean().map(f64::to_bits),
                flat.mean().map(f64::to_bits)
            );
        }
        let csv = csth.to_csv().expect("export");
        let parsed = Csth::from_csv(&csv, CSTH_POLL_PERIOD).expect("parse");
        if frames > 0 {
            prop_assert_eq!(parsed.channel_count(), self.n);
            for (c, id) in parsed.channels().enumerate() {
                prop_assert!(parsed.series(id).values().eq(self.column(c, 0..frames)));
            }
        }
        prop_assert_eq!(parsed.frame_count(), frames);
        prop_assert_eq!(parsed.to_csv().expect("re-export"), csv);
        Ok(())
    }
}

/// The per-call reference for one reading: one `next_gaussian` per noisy
/// reading, no buffering.
fn reference_reading(spec: SensorSpec, rng: &mut SimRng, true_value: f64) -> f64 {
    let mut v = spec.gain * true_value + spec.offset;
    if spec.noise_sigma > 0.0 {
        v += spec.noise_sigma * rng.next_gaussian();
    }
    if spec.quantization > 0.0 {
        v = (v / spec.quantization).round() * spec.quantization;
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Series statistics are consistent: min ≤ mean ≤ max.
    #[test]
    fn series_statistics_consistent(
        values in prop::collection::vec(-100.0..1000.0f64, 1..50),
    ) {
        let mut s = TimeSeries::new();
        for (i, v) in values.iter().enumerate() {
            s.push(SimInstant::from_millis(i as u64 * 1_000), *v).expect("push");
        }
        let s = s.view();
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let (mean, max) = (s.mean().expect("non-empty"), s.max().expect("non-empty"));
        prop_assert!(min <= mean + 1e-12 && mean <= max + 1e-12);
        prop_assert_eq!(max, values.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Windowing partitions the series: every sample lands in exactly
    /// one of two adjacent windows.
    #[test]
    fn windows_partition(
        n in 1usize..60,
        split_ms in 0u64..60_000,
    ) {
        let mut s = TimeSeries::new();
        for i in 0..n {
            s.push(SimInstant::from_millis(i as u64 * 1_000), i as f64).expect("push");
        }
        let end = SimInstant::from_millis(10_000_000);
        let mid = SimInstant::from_millis(split_ms);
        let left = s.view().window(SimInstant::ZERO, mid);
        let right = s.view().window(mid, end);
        prop_assert_eq!(left.len() + right.len(), n);
    }

    /// Quantized sensors always report multiples of the step.
    #[test]
    fn sensor_quantization_exact(
        value in -50.0..150.0f64,
        quant in 0.1..2.0f64,
        seed in 0u64..100,
    ) {
        let spec = SensorSpec {
            gain: 1.0,
            offset: 0.0,
            noise_sigma: 0.3,
            quantization: quant,
        };
        let mut bank = SensorBank::new();
        bank.push(spec, SimRng::seed(seed));
        let mut reading = [0.0];
        bank.measure_frame(&[value], &mut reading);
        let reading = reading[0];
        let steps = reading / quant;
        prop_assert!((steps - steps.round()).abs() < 1e-9, "reading {reading} not on the {quant} grid");
    }

    /// A lockstep bank reads bit-identically to per-call draws from each
    /// channel's own stream, for any mix of noisy, noise-free, quantized
    /// and unquantized channels up to a server's width, across at least
    /// three refills. A clone taken mid-block (the checkpoint path) keeps
    /// reading bit-identically beside the original.
    #[test]
    fn sensor_bank_matches_per_call_reference(
        channels in prop::collection::vec(
            (0.9..1.1f64, -2.0..2.0f64, 0usize..3, 0usize..3),
            1..81,
        ),
        frames in 48usize..100,
        clone_block in 0usize..3,
        clone_offset in 1usize..16,
        seed in 0u64..1_000,
    ) {
        let sigmas = [0.0, 0.25, 3.0];
        let quants = [0.0, 0.5, 0.001];
        let specs: Vec<SensorSpec> = channels
            .iter()
            .map(|&(gain, offset, s, q)| SensorSpec {
                gain,
                offset,
                noise_sigma: sigmas[s],
                quantization: quants[q],
            })
            .collect();
        let mut parent = SimRng::seed(seed);
        let mut bank = SensorBank::new();
        let mut reference = Vec::new();
        for (c, &spec) in specs.iter().enumerate() {
            let rng = parent.fork(&format!("ch{c}"));
            reference.push(rng.clone());
            bank.push(spec, rng);
        }
        // Blocks hold 16 frames; the clone is taken inside one.
        let clone_at = 16 * clone_block + clone_offset;
        let mut clone = None;
        let mut truth_rng = SimRng::seed(seed ^ 0x5eed);
        let mut truth = vec![0.0; specs.len()];
        let mut out = vec![0.0; specs.len()];
        let mut cloned_out = vec![0.0; specs.len()];
        for f in 0..frames {
            if f == clone_at {
                clone = Some(bank.clone());
            }
            for t in &mut truth {
                *t = truth_rng.next_f64() * 200.0 - 50.0;
            }
            bank.measure_frame(&truth, &mut out);
            for (c, (&spec, rng)) in specs.iter().zip(&mut reference).enumerate() {
                let want = reference_reading(spec, rng, truth[c]);
                prop_assert_eq!(out[c].to_bits(), want.to_bits(), "frame {} channel {}", f, c);
            }
            if let Some(clone) = clone.as_mut() {
                clone.measure_frame(&truth, &mut cloned_out);
                for (c, (got, want)) in cloned_out.iter().zip(&out).enumerate() {
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "clone, frame {} channel {}", f, c);
                }
            }
        }
        prop_assert!(clone.is_some());
    }

    /// A capture the bank measures into reads back each per-call
    /// reference reading bit for bit, over truths that include zero,
    /// negative and huge values: `-0.0` readings, counts beyond `i16`
    /// and overflowing readings included. Every frame carries every
    /// kind of channel, and the run crosses several seals and refills.
    #[test]
    fn measured_capture_matches_per_call_reference(
        channels in prop::collection::vec(
            (0.9..1.1f64, -2.0..2.0f64, 0usize..3, 0usize..4),
            1..40,
        ),
        truths in prop::collection::vec((0usize..5, -200.0..200.0f64), 40),
        frames in 17usize..60,
        seed in 0u64..1_000,
    ) {
        let sigmas = [0.0, 0.25, 3.0];
        let quants = [0.0, 0.5, 0.001, 1.0];
        let specs: Vec<SensorSpec> = channels
            .iter()
            .map(|&(gain, offset, s, q)| SensorSpec {
                gain,
                offset,
                noise_sigma: sigmas[s],
                quantization: quants[q],
            })
            .collect();
        let mut parent = SimRng::seed(seed);
        let mut bank = SensorBank::new();
        let mut csth = Csth::new(CSTH_POLL_PERIOD);
        let mut reference = Vec::new();
        for (c, spec) in specs.iter().enumerate() {
            let rng = parent.fork(&format!("ch{c}"));
            reference.push(rng.clone());
            bank.push(*spec, rng);
            csth.add_measured_channel(&format!("ch{c}"), "x", spec)
                .expect("before the first frame");
        }
        // Zero (which reads `-0.0` under small negative noise), the
        // sampled value, a huge one, one near `f64::MAX` (an infinite truth
        // or reading past ±179) and a small one.
        let truth_of = |(kind, x): (usize, f64)| match kind {
            0 => 0.0,
            1 => x,
            2 => x * 1e9,
            3 => -x * 1e306,
            _ => x * 0.01,
        };
        let mut truth = vec![0.0; specs.len()];
        let mut flat = FlatCapture { n: specs.len(), times: Vec::new(), values: Vec::new() };
        for f in 0..frames {
            for (c, t) in truth.iter_mut().enumerate() {
                *t = truth_of(truths[(f * 7 + c) % truths.len()]);
            }
            let want: Vec<f64> = specs
                .iter()
                .zip(&mut reference)
                .zip(&truth)
                .map(|((&spec, rng), &x)| reference_reading(spec, rng, x))
                .collect();
            let at = SimInstant::from_millis(f as u64 * 10_000);
            let recorded = bank.measure_into(&mut csth, at, &truth);
            match want.iter().position(|v| !v.is_finite()) {
                Some(c) => prop_assert_eq!(
                    recorded,
                    Err(TelemetryError::NonFinite { channel: format!("ch{c}"), at })
                ),
                None => {
                    prop_assert_eq!(recorded, Ok(()));
                    flat.times.push(at);
                    flat.values.extend_from_slice(&want);
                }
            }
        }
        flat.check(&csth, (0, frames))?;
    }

    /// Block storage reads back exactly what was recorded, across the
    /// 16-frame block boundaries. A clone taken at any frame (the
    /// checkpoint path) and its original then record different frames,
    /// and each reads back only its own.
    #[test]
    fn block_storage_matches_flat_reference(
        n in 1usize..81,
        frames in 0usize..71,
        clone_at in 0usize..71,
        gaps in prop::collection::vec(0u64..3, 70),
        seed in 0u64..1_000,
        probe in (0usize..71, 0usize..71),
    ) {
        let clone_at = clone_at.min(frames);
        let mut csth = Csth::new(CSTH_POLL_PERIOD);
        // Raw channels beside coded ones whose values sit on their grid,
        // off it (0.125 steps on a 0.5 grid) or beyond `i16` counts.
        let quantization = [0.0, 0.125, 0.5];
        for c in 0..n {
            let spec = SensorSpec { quantization: quantization[c % 3], ..SensorSpec::ideal() };
            csth.add_measured_channel(&format!("ch{c}"), "C", &spec)
                .expect("before the first frame");
        }
        let value = |side: u64, f: usize, c: usize| {
            let h = (seed ^ side).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((f * 131 + c * 7) as u64)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9);
            ((h >> 40) % (1 << (8 + c % 16))) as f64 * 0.125 - 50.0
        };
        let fill = |frame: &mut [f64], side: u64, f: usize| {
            frame.iter_mut().enumerate().for_each(|(c, v)| *v = value(side, f, c));
        };
        let mut flat = FlatCapture { n, times: Vec::new(), values: Vec::new() };
        let mut frame = vec![0.0; n];
        // Gaps of 0 repeat a timestamp, which frames may do; the clone's
        // frames land 1 s later per frame than the original's.
        let mut clock = 0;
        for (f, gap) in gaps.iter().enumerate().take(clone_at) {
            clock += gap * 10_000;
            fill(&mut frame, 0, f);
            flat.record(&mut csth, SimInstant::from_millis(clock), &frame);
        }
        let (mut copy, mut copy_flat, mut copy_clock) = (csth.clone(), flat.clone(), clock);
        for (f, gap) in gaps.iter().enumerate().take(frames).skip(clone_at) {
            clock += gap * 10_000;
            fill(&mut frame, 0, f);
            flat.record(&mut csth, SimInstant::from_millis(clock), &frame);
            copy_clock += gap * 10_000 + 1_000;
            fill(&mut frame, 1, f);
            copy_flat.record(&mut copy, SimInstant::from_millis(copy_clock), &frame);
        }
        flat.check(&csth, probe)?;
        copy_flat.check(&copy, probe)?;
    }

    /// CSV round trip preserves any harness content with clean names.
    #[test]
    fn csv_round_trip(
        channels in prop::collection::vec("[a-z][a-z0-9_]{0,12}", 1..5),
        samples in 1usize..20,
    ) {
        let mut names = channels;
        names.dedup();
        let mut csth = Csth::new(CSTH_POLL_PERIOD);
        for name in &names {
            csth.add_channel(name, "W").expect("before the first frame");
        }
        for i in 0..samples {
            let frame: Vec<f64> = (0..names.len()).map(|c| (c * 100 + i) as f64).collect();
            csth.record_frame(SimInstant::from_millis(i as u64 * 10_000), &frame)
                .expect("record");
        }
        let csv = csth.to_csv().expect("export");
        let parsed = Csth::from_csv(&csv, CSTH_POLL_PERIOD).expect("parse");
        prop_assert_eq!(parsed.channel_count(), csth.channel_count());
        prop_assert_eq!(parsed.sample_count(), csth.sample_count());
        for name in &names {
            let a = csth.channel_by_name(name).expect("channel");
            let b = parsed.channel_by_name(name).expect("channel");
            prop_assert!(csth.series(a).values().eq(parsed.series(b).values()));
        }
    }
}
