//! Pins the exact CSTH capture of a standalone server and of a resident
//! four-server fleet: an FNV-1a hash over every recorded (time, value)
//! bit pattern, channel by channel, plus a short verbatim CSV export.
//!
//! The runs span 720 simulated seconds of varying load and fan speed —
//! 73 polls, so every noisy channel crosses several 16-draw noise-block
//! refills. Any change to the sensor noise streams, their fork order,
//! the measurement arithmetic or the telemetry storage shows up here.

use leakctl::fleet::Fleet;
use leakctl::prelude::*;
use leakctl_telemetry::Csth;

const SECONDS: u64 = 720;

fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn capture_hash(csth: &Csth) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for ch in csth.channels() {
        for (t, v) in csth.series(ch).iter() {
            fnv(&mut hash, t.as_millis());
            fnv(&mut hash, v.to_bits());
        }
    }
    hash
}

fn activity(second: u64) -> Utilization {
    let phase = (second % 240) as f64 / 240.0;
    Utilization::saturating_from_fraction(if phase < 0.4 { 1.0 } else { 0.15 + 0.5 * phase })
}

fn fan(second: u64) -> Rpm {
    Rpm::new(if (second / 180).is_multiple_of(2) {
        2400.0
    } else {
        3600.0
    })
}

#[test]
fn server_capture_bit_stable() {
    let mut server = Server::new(ServerConfig::default(), 42).unwrap();
    for s in 0..SECONDS {
        if s % 60 == 0 {
            server.command_fan_speed(fan(s));
        }
        server.step(SimDuration::from_secs(1), activity(s)).unwrap();
    }
    let csth = server.csth();
    assert_eq!(csth.sample_count(), 73 * 73);
    assert_eq!(
        format!("{:016x}", capture_hash(csth)),
        "b6efff7bb2f95b5e",
        "server CSTH capture drifted"
    );
}

#[test]
fn resident_fleet_capture_bit_stable() {
    let mut fleet = Fleet::new(ServerConfig::default(), 4, 0.002, 7).unwrap();
    for s in 0..SECONDS {
        if s % 60 == 0 {
            fleet.command_all(fan(s));
        }
        fleet.step(SimDuration::from_secs(1), activity(s)).unwrap();
    }
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for i in 0..fleet.len() {
        let server = fleet.server(i).unwrap();
        fnv(&mut hash, capture_hash(server.csth()));
    }
    assert_eq!(
        format!("{hash:016x}"),
        "ef1767a0b930d2f1",
        "fleet CSTH capture drifted"
    );
}

#[test]
fn short_csv_export_bit_stable() {
    let mut server = Server::new(ServerConfig::default(), 42).unwrap();
    for s in 0..20 {
        server.step(SimDuration::from_secs(1), activity(s)).unwrap();
    }
    let csv = server.csth().to_csv().unwrap();
    let head: Vec<&str> = csv.lines().take(8).collect();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for byte in csv.bytes() {
        fnv(&mut hash, u64::from(byte));
    }
    assert_eq!(
        head.join("\n"),
        "time_s,channel,unit,value\n\
         0.000,cpu0_temp0,C,24.5\n\
         10.000,cpu0_temp0,C,29.5\n\
         20.000,cpu0_temp0,C,32\n\
         0.000,cpu0_temp1,C,24\n\
         10.000,cpu0_temp1,C,29.5\n\
         20.000,cpu0_temp1,C,31.5\n\
         0.000,cpu1_temp0,C,24",
        "CSV head drifted"
    );
    assert_eq!(format!("{hash:016x}"), "20922d3ba3490018", "CSV drifted");
}
