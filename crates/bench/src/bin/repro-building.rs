//! Building-scale resilience figure: a four-room building sharing one
//! finite chilled-water plant rides a chiller failure, a heat-wave
//! economizer lockout and a correlated load surge under supervised
//! per-room LUT and MPC set-point controllers, merged into the
//! `BENCH_perf.json` perf artifact alongside the other `repro-*`
//! reporters.
//!
//! The process exits nonzero unless (a) both supervised controllers
//! *contain* every scripted building fault — the hottest die across the
//! building exceeds the 85 °C cap for no longer than the documented
//! transient budget, ends the run back under it, and no invariant
//! monitor (NaN, energy conservation) trips — and (b) a mid-fault
//! building checkpoint restored onto thread plans {1, 2, 8} finishes
//! bit-identically to the uninterrupted run. The
//! `building_ctrl_servers_per_sec` throughput of the MPC rides joins
//! the existing `repro-perf-diff` regression gate.
//!
//! ```text
//! cargo run --release -p leakctl-bench --bin repro-building [-- --quick] [--out PATH]
//! ```

use leakctl_bench::building::{run_building_sweep, BuildingSpec};
use leakctl_bench::perf::{gate_main, GateRun};

fn main() {
    gate_main(env!("CARGO_BIN_NAME"), gate);
}

fn gate(quick: bool) -> GateRun {
    let spec = if quick {
        BuildingSpec::quick()
    } else {
        BuildingSpec::full()
    };
    println!(
        "== leakctl building resilience ({} rooms x {} servers, transient budget {:.0} s) ==",
        spec.rooms,
        spec.base.servers(),
        spec.transient_budget.as_secs_f64()
    );

    let sweep = run_building_sweep(&spec);
    let mut scenario = "";
    for run in &sweep.runs {
        if run.scenario != scenario {
            println!("scenario: {}", run.scenario);
            scenario = &run.scenario;
        }
        println!(
            "  {:<4} peak die {:>6.2} C  final {:>6.2} C  over-cap {:>6.1} s  \
             sheds {:>2}  escalations {:>2}  shed time {:>6.0} s  trips {:>2}  {}",
            run.controller,
            run.outcome.stats.peak_die.degrees(),
            run.outcome.final_max_die.degrees(),
            run.outcome.stats.cap_violation_time.as_secs_f64(),
            run.outcome.sheds,
            run.outcome.escalations,
            run.outcome.shed_time.as_secs_f64(),
            run.outcome.trips.invariant(),
            if run.contained {
                "contained"
            } else {
                "NOT CONTAINED"
            }
        );
    }
    println!(
        "mid-fault checkpoint/restore bit-identical across plans {{1, 2, 8}}: {}",
        sweep.checkpoint_bit_identical
    );

    let result = sweep.to_perf_result();
    println!(
        "{:<30} {:>12} server-steps in {:>8.3} s -> {:>12.0} servers-stepped/s",
        result.name,
        result.steps,
        result.wall_s,
        result.steps_per_sec()
    );

    GateRun {
        results: vec![result],
        checks: vec![
            (
                sweep.all_contained(),
                "the supervised set-point controllers must contain every scripted building \
                 fault (cap excursions bounded by the transient budget, end state under the cap, \
                 zero invariant-monitor trips)",
            ),
            (
                sweep.checkpoint_bit_identical,
                "a mid-fault building checkpoint must restore to a bit-identical trajectory \
                 on every thread plan",
            ),
        ],
        pass: Some(
            "supervised LUT and MPC contained every building fault; \
             checkpoint/restore is bit-identical across thread plans",
        ),
    }
}
