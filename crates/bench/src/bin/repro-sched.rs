//! Thermal-aware scheduling figure: total (IT + cooling) energy and
//! peak die temperature of the thermal-greedy and local-search
//! placement policies against the round-robin baseline on the
//! 3072-server repro room (8 × 8 racks × 48 servers), merged into the
//! `BENCH_perf.json` perf artifact alongside the other repro reporters.
//!
//! All three policies consume the identical seeded job stream under
//! the identical LUT cooling controller; only placement differs. The
//! process exits nonzero unless thermal-greedy *and* local-search
//! strictly beat round-robin on total energy at equal-or-lower peak
//! die temperature — the CI acceptance gate for the scheduler layer —
//! and the `sched_servers_per_sec` throughput of the scheduled loop
//! rides the existing `repro-perf-diff` regression gate.
//!
//! ```text
//! cargo run --release -p leakctl-bench --bin repro-sched [-- --quick] [--out PATH]
//! ```

use leakctl_bench::perf::{gate_main, GateRun};
use leakctl_bench::sched::{run_sched_comparison, SchedScenario};

fn main() {
    gate_main(env!("CARGO_BIN_NAME"), gate);
}

fn gate(quick: bool) -> GateRun {
    let scenario = if quick {
        SchedScenario::quick()
    } else {
        SchedScenario::full()
    };
    println!(
        "== leakctl scheduling figure ({}x{} racks, {} servers, {:.2} jobs/s) ==",
        scenario.rows,
        scenario.racks_per_row,
        scenario.servers(),
        scenario.arrival_rate
    );

    let comparison = run_sched_comparison(&scenario);
    for run in [
        &comparison.round_robin,
        &comparison.greedy,
        &comparison.local_search,
    ] {
        println!(
            "  {:<16} {:>10.4} kWh  (IT {:.4} + cooling {:.4})  max die {:>6.2} C  \
             placed {:>6}  done {:>6}  queue<= {:>4}{}",
            run.name,
            run.total_kwh,
            run.it_kwh,
            run.cooling_kwh,
            run.max_die_c,
            run.placed,
            run.completed,
            run.peak_pending,
            if run.feasible { "" } else { "  INFEASIBLE" }
        );
    }
    println!(
        "  savings vs round-robin: greedy {:+.3}%  local-search {:+.3}%  \
         peak-die delta {:+.3} C",
        comparison.savings_pct(&comparison.greedy),
        comparison.savings_pct(&comparison.local_search),
        comparison.peak_die_delta()
    );

    let result = comparison.to_perf_result();
    println!(
        "{:<28} {:>12} server-steps in {:>8.3} s -> {:>12.0} servers-stepped/s",
        result.name,
        result.steps,
        result.wall_s,
        result.steps_per_sec()
    );

    GateRun {
        results: vec![result],
        checks: vec![(
            comparison.strictly_wins(),
            "thermal-greedy and local-search must strictly beat round-robin \
                 on total energy at equal-or-lower peak die temperature",
        )],
        pass: Some(
            "thermal-aware placement strictly beats round-robin on energy \
             at equal-or-lower peak die temperature",
        ),
    }
}
