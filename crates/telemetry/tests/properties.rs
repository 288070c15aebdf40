//! Property-based tests for telemetry storage and sensors.

use leakctl_sim::SimRng;
use leakctl_telemetry::{Csth, SensorBank, SensorSpec, TimeSeries, CSTH_POLL_PERIOD};
use leakctl_units::SimInstant;
use proptest::prelude::*;

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

    /// Series statistics are consistent: min ≤ mean ≤ max, percentiles
    /// ordered.
    #[test]
    fn series_statistics_consistent(
        values in prop::collection::vec(-100.0..1000.0f64, 1..50),
    ) {
        let mut s = TimeSeries::new();
        for (i, v) in values.iter().enumerate() {
            s.push(SimInstant::from_millis(i as u64 * 1_000), *v).expect("push");
        }
        let s = s.view();
        let (min, mean, max) = (
            s.min().expect("non-empty"),
            s.mean().expect("non-empty"),
            s.max().expect("non-empty"),
        );
        prop_assert!(min <= mean + 1e-12 && mean <= max + 1e-12);
        let p25 = s.percentile(25.0).expect("non-empty");
        let p75 = s.percentile(75.0).expect("non-empty");
        prop_assert!(p25 <= p75);
        prop_assert!(min <= p25 && p75 <= max);
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
