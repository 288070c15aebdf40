//! Typed errors of the frame API: a rejected frame, channel or CSV
//! import names what was wrong and leaves the capture untouched.

use leakctl_telemetry::{Csth, CsvError, TelemetryError, CSTH_POLL_PERIOD};
use leakctl_units::SimInstant;

fn at(s: u64) -> SimInstant {
    SimInstant::from_millis(s * 1_000)
}

/// Three channels with `frames` frames recorded 10 s apart.
fn capture(frames: u64) -> Csth {
    let mut csth = Csth::new(CSTH_POLL_PERIOD);
    for name in ["cpu0_temp0", "dimm00_temp", "system_power"] {
        csth.add_channel(name, if name == "system_power" { "W" } else { "C" })
            .unwrap();
    }
    for f in 0..frames {
        let x = f as f64;
        csth.record_frame(at(10 * f), &[55.0 + x, 40.5 - x, 480.0 + 2.0 * x])
            .unwrap();
    }
    csth
}

fn assert_unchanged(csth: &Csth, before: &str) {
    assert_eq!(
        csth.to_csv().unwrap(),
        before,
        "a rejected call mutated the capture"
    );
}

#[test]
fn wrong_length_frame_rejected() {
    let mut csth = capture(2);
    let before = csth.to_csv().unwrap();
    for frame in [&[1.0, 2.0][..], &[1.0, 2.0, 3.0, 4.0]] {
        let err = csth.record_frame(at(30), frame).unwrap_err();
        assert_eq!(
            err,
            TelemetryError::FrameLength {
                expected: 3,
                got: frame.len()
            }
        );
    }
    assert_unchanged(&csth, &before);
}

#[test]
fn time_regression_rejected() {
    let mut csth = capture(3);
    let before = csth.to_csv().unwrap();
    let err = csth.record_frame(at(15), &[1.0, 2.0, 3.0]).unwrap_err();
    assert_eq!(
        err,
        TelemetryError::TimeRegression {
            at: at(15),
            last: at(20)
        }
    );
    assert!(err.to_string().contains("precedes"));
    assert_unchanged(&csth, &before);
    // An equal timestamp is not a regression.
    csth.record_frame(at(20), &[1.0, 2.0, 3.0]).unwrap();
    assert_eq!(csth.frame_count(), 4);
}

#[test]
fn nan_in_frame_three_names_the_channel() {
    let mut csth = capture(3);
    let before = csth.to_csv().unwrap();
    let err = csth
        .record_frame(at(30), &[58.0, f64::NAN, f64::INFINITY])
        .unwrap_err();
    assert_eq!(
        err,
        TelemetryError::NonFinite {
            channel: "dimm00_temp".into(),
            at: at(30)
        }
    );
    assert!(err.to_string().contains("dimm00_temp"));
    assert_unchanged(&csth, &before);
    assert_eq!(csth.frame_count(), 3);
    let power = csth.channel_by_name("system_power").unwrap();
    assert_eq!(csth.last(power), Some((at(20), 484.0)));
}

#[test]
fn add_channel_after_first_frame_rejected() {
    let mut empty = capture(0);
    assert!(empty.add_channel("late_but_fine", "C").is_ok());
    let mut csth = capture(1);
    let before = csth.to_csv().unwrap();
    let err = csth.add_channel("fan_rpm", "RPM").unwrap_err();
    assert_eq!(
        err,
        TelemetryError::ChannelsFrozen {
            channel: "fan_rpm".into()
        }
    );
    assert_eq!(csth.channel_count(), 3);
    assert_eq!(csth.channel_by_name("fan_rpm"), None);
    assert_unchanged(&csth, &before);
}

#[test]
fn ragged_csv_import_rejected() {
    let header = "time_s,channel,unit,value\n";
    // `b` misses the second instant.
    let missing = format!("{header}0.000,a,C,1\n10.000,a,C,2\n0.000,b,W,3\n");
    assert_eq!(
        Csth::from_csv(&missing, CSTH_POLL_PERIOD).unwrap_err(),
        CsvError::RaggedChannel {
            channel: "b".into()
        }
    );
    // Same count, shifted instants.
    let shifted = format!("{header}0.000,a,C,1\n10.000,a,C,2\n0.000,b,W,3\n11.000,b,W,4\n");
    let err = Csth::from_csv(&shifted, CSTH_POLL_PERIOD).unwrap_err();
    assert_eq!(
        err,
        CsvError::RaggedChannel {
            channel: "b".into()
        }
    );
    assert!(err.to_string().contains('b'));
}

#[test]
fn multi_frame_csv_round_trip() {
    let original = capture(7);
    let csv = original.to_csv().unwrap();
    let parsed = Csth::from_csv(&csv, CSTH_POLL_PERIOD).unwrap();
    assert_eq!(parsed.frame_count(), 7);
    assert_eq!(parsed.channel_count(), 3);
    for (a, b) in original.channels().zip(parsed.channels()) {
        assert_eq!(original.name(a), parsed.name(b));
        assert_eq!(original.unit(a), parsed.unit(b));
        let (sa, sb) = (original.series(a), parsed.series(b));
        assert_eq!(sa.times(), sb.times());
        assert!(sa
            .values()
            .map(f64::to_bits)
            .eq(sb.values().map(f64::to_bits)));
    }
    assert_eq!(parsed.to_csv().unwrap(), csv);
}
