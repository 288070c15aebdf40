//! Perf regression gate: compares a fresh `BENCH_perf.json` against the
//! previous CI artifact and fails (exit 1) when any shared measurement
//! lost more than 20 % steps/sec, or when a measurement of the old
//! report is missing from the new one.
//!
//! ```text
//! cargo run --release -p leakctl-bench --bin repro-perf-diff -- OLD.json NEW.json [--threshold 0.20]
//! ```
//!
//! Measurements are matched by name. An entry only in the new report (a
//! new bench) is listed and passes, so adding a measurement does not
//! require seeding history; an entry only in the old report (a dropped
//! or renamed bench) fails, so a measurement cannot vanish unnoticed.
//! Wall-clock noise on shared CI runners is why the default gate is as
//! loose as 20 % — the report keeps best-of-N minima precisely so this
//! stays meaningful.

use std::process::ExitCode;

use leakctl_bench::perf::{diff_reports, parse_steps_per_sec};

/// Allowed fractional steps/sec loss before the gate fails.
const DEFAULT_THRESHOLD: f64 = 0.20;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let (Some(old_path), Some(new_path)) = (paths.first(), paths.get(1)) else {
        eprintln!("usage: repro-perf-diff OLD.json NEW.json [--threshold 0.20]");
        return ExitCode::from(2);
    };
    let threshold = args
        .iter()
        .position(|a| a == "--threshold")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(DEFAULT_THRESHOLD);

    let read = |path: &str| -> Option<Vec<(String, f64)>> {
        let doc = std::fs::read_to_string(path).ok()?;
        let parsed = parse_steps_per_sec(&doc);
        if parsed.is_empty() {
            None
        } else {
            Some(parsed)
        }
    };
    let Some(old) = read(old_path) else {
        eprintln!("repro-perf-diff: cannot parse {old_path}; skipping gate (no history)");
        return ExitCode::SUCCESS;
    };
    let Some(new) = read(new_path) else {
        eprintln!("repro-perf-diff: cannot parse {new_path}");
        return ExitCode::FAILURE;
    };

    println!(
        "== perf regression gate (>{:.0}% loss fails) ==",
        threshold * 100.0
    );
    // The comparison policy lives in `leakctl_bench::perf::diff_reports`
    // (unit-tested there): shared names gate on the threshold, a name
    // only in the new report is listed, a name only in the old report
    // fails.
    let report = diff_reports(&old, &new, threshold);
    for line in &report.lines {
        println!("{line}");
    }
    if report.failed {
        eprintln!(
            "perf gate FAILED: steps/sec regression beyond {:.0}% or a dropped measurement",
            threshold * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!("perf gate passed");
        ExitCode::SUCCESS
    }
}
