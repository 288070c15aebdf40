//! Fault-ride-through figure: scripted CRAH failures, fan degradation
//! and load spikes driven through the closed control loop on the
//! 256-server repro room, under a fixed-supply baseline and the LUT and
//! MPC set-point controllers, merged into the `BENCH_perf.json` perf
//! artifact alongside the other `repro-*` reporters.
//!
//! The process exits nonzero unless (a) both adaptive controllers
//! *contain* every scripted fault — the hottest die exceeds the 85 °C
//! cap for no longer than the documented transient budget and ends the
//! run back under it (the fixed baseline is reported but exempt) — and
//! (b) a mid-fault checkpoint restored into a fresh room and controller
//! finishes bit-identically to the uninterrupted run. The
//! `faults_ctrl_servers_per_sec` throughput of the MPC rides joins the
//! existing `repro-perf-diff` regression gate.
//!
//! ```text
//! cargo run --release -p leakctl-bench --bin repro-faults [-- --quick] [--out PATH]
//! ```

use leakctl_bench::faults::{run_fault_sweep, FaultsScenario};
use leakctl_bench::perf::{merge_into_json, render_json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_perf.json".to_owned());

    let spec = if quick {
        FaultsScenario::quick()
    } else {
        FaultsScenario::full()
    };
    println!(
        "== leakctl fault ride-through ({}x{} racks, {} servers, transient budget {:.0} s) ==",
        spec.base.rows,
        spec.base.racks_per_row,
        spec.servers(),
        spec.transient_budget.as_secs_f64()
    );

    let sweep = run_fault_sweep(&spec);
    let mut scenario = "";
    for run in &sweep.runs {
        if run.scenario != scenario {
            println!("scenario: {}", run.scenario);
            scenario = &run.scenario;
        }
        println!(
            "  {:<10} peak die {:>6.2} C  final {:>6.2} C  over-cap {:>6.1} s  \
             margin {:>6.1} s  recovery {:>8}  overhead {:>10}  {}",
            run.controller,
            run.outcome.stats.peak_die.degrees(),
            run.outcome.final_max_die.degrees(),
            run.outcome.stats.cap_violation_time.as_secs_f64(),
            run.budget_margin_s(sweep.transient_budget),
            run.outcome
                .stats
                .recovery_time
                .map_or_else(|| "n/a".to_owned(), |d| format!("{:.0} s", d.as_secs_f64())),
            run.outcome.stats.energy_overhead.map_or_else(
                || "n/a".to_owned(),
                |j| format!("{:+.4} kWh", j.as_kwh().value())
            ),
            if run.contained {
                "contained"
            } else if run.is_adaptive() {
                "NOT CONTAINED"
            } else {
                "not contained (baseline, exempt)"
            }
        );
    }
    println!(
        "mid-fault checkpoint/restore bit-identical: {}",
        sweep.checkpoint_bit_identical
    );

    let result = sweep.to_perf_result();
    println!(
        "{:<28} {:>12} server-steps in {:>8.3} s -> {:>12.0} servers-stepped/s",
        result.name,
        result.steps,
        result.wall_s,
        result.steps_per_sec()
    );

    let results = vec![result];
    let json = match std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|existing| merge_into_json(&existing, &results, quick))
    {
        Some(merged) => merged,
        None => render_json(&results, quick),
    };
    std::fs::write(&out_path, &json).expect("perf JSON written");
    println!("wrote {out_path}");

    if !sweep.adaptives_contained() {
        eprintln!(
            "FAIL: the adaptive set-point controllers must contain every scripted fault \
             (cap excursions bounded by the transient budget, end state under the cap)"
        );
        std::process::exit(1);
    }
    if !sweep.checkpoint_bit_identical {
        eprintln!("FAIL: a mid-fault checkpoint must restore to a bit-identical trajectory");
        std::process::exit(1);
    }
    println!("PASS: LUT and MPC contained every fault; checkpoint/restore is bit-identical");
}
