//! Set-point optimization figure: total (IT + cooling) energy of the
//! LUT and receding-horizon MPC supply controllers against a grid of
//! fixed-supply baselines, swept over hot-aisle recirculation
//! fractions β on the 256-server repro room, merged into the
//! `BENCH_perf.json` perf artifact alongside `repro-perf`, `repro-rack`
//! and `repro-room`.
//!
//! For each β every fixed supply on the grid runs the same square-wave
//! load schedule; the cheapest one whose hottest die never crosses the
//! 85 °C cap is the baseline the adaptive controllers must strictly
//! beat. The process exits nonzero unless LUT *and* MPC win at every β
//! — the CI acceptance gate for the paper's room-scale claim — and the
//! `setpoint_ctrl_servers_per_sec` throughput of the MPC-controlled
//! loop rides the existing `repro-perf-diff` regression gate.
//!
//! ```text
//! cargo run --release -p leakctl-bench --bin repro-setpoint [-- --quick] [--out PATH]
//! ```

use leakctl_bench::perf::{gate_main, GateRun};
use leakctl_bench::setpoint::{run_setpoint_sweep, SetPointScenario};

fn main() {
    gate_main(env!("CARGO_BIN_NAME"), gate);
}

fn gate(quick: bool) -> GateRun {
    let scenario = if quick {
        SetPointScenario::quick()
    } else {
        SetPointScenario::full()
    };
    println!(
        "== leakctl set-point figure ({}x{} racks, {} servers, {} betas) ==",
        scenario.rows,
        scenario.racks_per_row,
        scenario.servers(),
        scenario.betas.len()
    );

    let sweep = run_setpoint_sweep(&scenario);
    for b in &sweep.betas {
        println!("beta = {:.2}", b.beta);
        for run in &b.fixed {
            println!(
                "  {:<10} {:>10.4} kWh  (IT {:.4} + cooling {:.4})  max die {:>6.2} C{}",
                run.name,
                run.total_kwh,
                run.it_kwh,
                run.cooling_kwh,
                run.max_die_c,
                if run.feasible { "" } else { "  INFEASIBLE" }
            );
        }
        let best = b.best_fixed();
        println!(
            "  best fixed: {}",
            best.map_or_else(|| "none feasible".to_owned(), |r| r.name.clone())
        );
        for run in [&b.lut, &b.mpc] {
            println!(
                "  {:<10} {:>10.4} kWh  (IT {:.4} + cooling {:.4})  max die {:>6.2} C  savings {}%{}",
                run.name,
                run.total_kwh,
                run.it_kwh,
                run.cooling_kwh,
                run.max_die_c,
                b.savings_pct(run)
                    .map_or_else(|| "n/a".to_owned(), |s| format!("{s:+.2}")),
                if run.feasible { "" } else { "  INFEASIBLE" }
            );
        }
    }

    let result = sweep.to_perf_result();
    println!(
        "{:<28} {:>12} server-steps in {:>8.3} s -> {:>12.0} servers-stepped/s",
        result.name,
        result.steps,
        result.wall_s,
        result.steps_per_sec()
    );
    println!(
        "setpoint_savings_pct = {}",
        sweep
            .min_savings_pct()
            .map_or_else(|| "n/a".to_owned(), |s| format!("{s:.4}"))
    );

    GateRun {
        results: vec![result],
        checks: vec![(
            sweep.strictly_wins(),
            "adaptive set-point control must strictly beat the best feasible \
                 fixed supply at every beta",
        )],
        pass: Some("LUT and MPC strictly beat the best fixed supply at every beta"),
    }
}
