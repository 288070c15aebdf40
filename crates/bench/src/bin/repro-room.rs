//! Room-scale throughput report: a full machine room — per-rack
//! server fleets coupled through the CRAH/plenum/aisle air-volume
//! network — stepped end to end, reporting servers-stepped/sec and the
//! room's energy split, merged into the `BENCH_perf.json` perf
//! artifact alongside `repro-perf` and `repro-rack`.
//!
//! The room is the default 2 rows × 4 racks × 32 servers floor
//! (8 racks, 256 servers — the acceptance floor for room-scale CI
//! coverage): two CRAH units, 18 °C supply, distance-decayed tile
//! flows, 10 % hot-aisle recirculation. One measurement drives the
//! regression gate:
//!
//! - `room_servers_per_sec` — full `Room::step` throughput in
//!   servers-stepped/sec (air phase + all fleets, racks sharded across
//!   the machine's workers), with the room's energy balance as extras:
//!   `room_energy_kwh` (IT + CRAH cooling work, accounting reset after
//!   warm-up so the energies cover exactly the timed steps),
//!   `room_it_kwh`, `room_cooling_kwh`, the hottest die, and the
//!   cold-aisle spread the tile-flow split produces.
//!
//! ```text
//! cargo run --release -p leakctl-bench --bin repro-room [-- --quick] [--out PATH]
//! ```

use std::time::Instant;

use leakctl_bench::perf::{best_of, gate_main, GateRun, PerfResult};
use leakctl_bench::RoomKernel;

/// Default floor: 2 rows × 4 racks × 32 servers = 256 servers.
const ROWS: usize = 2;
const RACKS_PER_ROW: usize = 4;
const SERVERS_PER_RACK: usize = 32;

/// One timed room run: warm-up, then `steps` measured seconds.
fn bench_room(steps: u64) -> PerfResult {
    let mut kernel = RoomKernel::new(ROWS, RACKS_PER_ROW, SERVERS_PER_RACK);
    let servers = kernel.servers() as u64;
    // Warm up: fans settle, the air network develops its gradients,
    // every hash group goes packed-resident. Accounting restarts so
    // the reported energies cover exactly the timed steps.
    kernel.step(120);
    kernel.reset_accounting();
    let start = Instant::now();
    kernel.step(steps);
    let wall_s = start.elapsed().as_secs_f64();

    let room = kernel.room();
    let racks = room.racks();
    let (mut coldest, mut hottest) = (f64::INFINITY, f64::NEG_INFINITY);
    for r in 0..racks {
        let t = room.cold_aisle_temperature(r).degrees();
        coldest = coldest.min(t);
        hottest = hottest.max(t);
    }
    PerfResult {
        name: "room_servers_per_sec",
        steps: steps * servers,
        wall_s,
        extra: vec![
            ("racks", format!("{racks}")),
            ("servers", format!("{}", room.servers())),
            (
                "room_energy_kwh",
                format!("{:.9}", room.total_energy().as_kwh().value()),
            ),
            (
                "room_it_kwh",
                format!("{:.9}", room.it_energy().as_kwh().value()),
            ),
            (
                "room_cooling_kwh",
                format!("{:.9}", room.cooling_energy().as_kwh().value()),
            ),
            (
                "max_die_temp_c",
                format!("{:.6}", room.max_die_temperature().degrees()),
            ),
            ("cold_aisle_min_c", format!("{coldest:.6}")),
            ("cold_aisle_max_c", format!("{hottest:.6}")),
            (
                "return_temp_c",
                format!("{:.6}", room.return_temperature().degrees()),
            ),
            ("it_power_w", format!("{:.3}", room.total_power().value())),
            (
                "crah_heat_removed_w",
                format!("{:.3}", room.air().crah_heat_removed().value()),
            ),
        ],
    }
}

fn main() {
    gate_main(env!("CARGO_BIN_NAME"), gate);
}

fn gate(quick: bool) -> GateRun {
    let servers = ROWS * RACKS_PER_ROW * SERVERS_PER_RACK;
    println!("== leakctl room-scale report ({ROWS}x{RACKS_PER_ROW} racks, {servers} servers) ==");
    let steps = if quick { 120 } else { 900 };
    let reps = if quick { 2 } else { 3 };
    let result = best_of(reps, || bench_room(steps));

    println!(
        "{:<24} {:>10} server-steps in {:>8.3} s -> {:>12.0} servers-stepped/s",
        result.name,
        result.steps,
        result.wall_s,
        result.steps_per_sec()
    );
    for (k, v) in &result.extra {
        println!("    {k} = {v}");
    }

    GateRun {
        results: vec![result],
        checks: Vec::new(),
        pass: None,
    }
}
