//! Beyond the paper: (1) how the sea-level LUT derates with ambient
//! temperature and altitude — the reason vendors pin fans at a high
//! minimum speed — and (2) a four-server rack with exhaust
//! recirculation warming the shared inlet.
//!
//! ```text
//! cargo run --release -p leakctl --example rack_and_derating
//! ```

use leakctl::derating::{air_density_ratio, derating_sweep};
use leakctl::fleet::Fleet;
use leakctl::prelude::*;
use leakctl::report::ascii_table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("building the LUT from a quick characterization...");
    let data = characterize(&CharacterizeOptions::quick(), 42)?;
    let fitted = fit_models(&data)?;
    let lut = leakctl::build_lut_from_characterization(&data, &fitted)?;
    println!(
        "LUT full-load speed: {:.0} RPM\n",
        lut.lookup(Utilization::FULL).value()
    );

    // ---- 1. Ambient / altitude derating -----------------------------
    let points: Vec<(f64, f64)> = vec![
        (24.0, 0.0),
        (28.0, 0.0),
        (32.0, 0.0),
        (36.0, 0.0),
        (40.0, 0.0),
        (24.0, 1_500.0),
        (24.0, 3_000.0),
        (32.0, 3_000.0),
    ];
    let sweep = derating_sweep(&ServerConfig::default(), &lut, &points, 42)?;
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.ambient_c),
                format!("{:.0}", p.altitude_m),
                format!("{:.2}", air_density_ratio(p.altitude_m)),
                format!("{:.0}", p.lut_rpm.value()),
                if p.lut_max_temp.degrees().is_finite() {
                    format!("{:.1}", p.lut_max_temp.degrees())
                } else {
                    "runaway".to_owned()
                },
                if p.lut_safe {
                    "yes".into()
                } else {
                    "NO".into()
                },
                p.required_rpm
                    .map_or_else(|| "none!".to_owned(), |r| format!("{:.0}", r.value())),
            ]
        })
        .collect();
    println!(
        "derating of the sea-level LUT at 100% load (75 C target):\n{}",
        ascii_table(
            &[
                "Ambient (C)",
                "Altitude (m)",
                "Density",
                "LUT RPM",
                "Max T (C)",
                "Safe",
                "Required RPM",
            ],
            &rows
        )
    );
    println!(
        "this is the paper's point about vendor defaults: a table tuned at\n\
         24 C sea level must be re-derived (or fans sped up) for harsher\n\
         environments.\n"
    );

    // ---- 2. Rack with exhaust recirculation -------------------------
    for (label, recirc) in [
        ("sealed aisle (r = 0)", 0.0),
        ("leaky aisle (r = 4 mK/W)", 0.004),
    ] {
        let mut rack = Fleet::new(ServerConfig::default(), 4, recirc, 42)?;
        rack.command_all(lut.lookup(Utilization::FULL));
        for _ in 0..2_400 {
            rack.step(SimDuration::from_secs(1), Utilization::FULL)?;
        }
        println!(
            "{label}: inlet {:.1} C, rack power {:.0} W, hottest die {:.1} C",
            rack.inlet_temperature().degrees(),
            rack.total_power().value(),
            rack.max_die_temperature().degrees()
        );
    }
    println!(
        "\nrecirculation shifts every server's operating point upward —\n\
         per-rack inlet sensing (or conservative tables) becomes necessary."
    );
    Ok(())
}
