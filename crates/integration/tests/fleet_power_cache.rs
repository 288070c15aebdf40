//! The fleet's end-of-step power vector never disagrees with its
//! servers: after any sequence of steps, fan commands, fan faults,
//! checkpoint/restore and accounting resets,
//! `Fleet::total_power` is bit-identical to a fresh original-order sum
//! of every server's own `total_power`.

use leakctl::fleet::Fleet;
use leakctl_platform::{FanFault, ServerConfig};
use leakctl_thermal::ShardPlan;
use leakctl_units::{Rpm, SimDuration, ThermalCapacitance, Utilization, Watts};
use proptest::prelude::*;

/// Server `i`'s SKU: three thermal topologies, so the fleet forms up to
/// three hash groups and storage order differs from index order.
fn config(kind: usize) -> ServerConfig {
    match kind % 3 {
        0 => ServerConfig::default(),
        1 => ServerConfig {
            sockets: 1,
            process_sigma: vec![1.0],
            ..ServerConfig::default()
        },
        // Half the DIMMs: lighter memory banks.
        _ => ServerConfig {
            dimm_count: 16,
            dimm_bank_capacitance: ThermalCapacitance::new(450.0),
            ..ServerConfig::default()
        },
    }
}

fn fresh_total(fleet: &mut Fleet) -> u64 {
    let total: Watts = (0..fleet.len())
        .map(|i| fleet.server(i).unwrap().total_power())
        .sum();
    total.value().to_bits()
}

fn activity(x: f64) -> Utilization {
    Utilization::saturating_from_fraction(x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn total_power_matches_fresh_server_sum(
        kinds in prop::collection::vec(0usize..3, 3..8),
        ops in prop::collection::vec((0usize..8, 0usize..8, 0.0..1.0f64), 20..60),
        seed in 0u64..1_000,
    ) {
        let configs: Vec<ServerConfig> = kinds.iter().map(|&k| config(k)).collect();
        for threads in [1usize, 2, 4] {
            let plan = ShardPlan::new(threads).with_min_lanes_per_shard(1);
            let mut fleet = Fleet::with_plan(&configs, 0.002, seed, plan).unwrap();
            let mut distinct = kinds.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(fleet.hash_group_count(), distinct.len());
            let mut snap = None;
            let dt = SimDuration::from_secs(1);
            for &(op, pick, x) in &ops {
                let i = pick % fleet.len();
                match op {
                    0 | 1 => fleet.step(dt, activity(x)).unwrap(),
                    // A zero-length step moves nothing.
                    2 => fleet.step(SimDuration::ZERO, activity(x)).unwrap(),
                    3 => fleet.command_all(Rpm::new(1800.0 + 2400.0 * x)),
                    4 => {
                        let fault = match pick % 3 {
                            0 => FanFault::None,
                            1 => FanFault::Stuck,
                            _ => FanFault::Degraded { flow_scale: x },
                        };
                        fleet.inject_fan_fault(i, fault).unwrap();
                    }
                    5 => snap = Some(fleet.checkpoint()),
                    6 => {
                        if let Some(snap) = &snap {
                            fleet.restore(snap).unwrap();
                        }
                    }
                    _ => fleet.reset_accounting(),
                }
                let cached = fleet.total_power().value().to_bits();
                prop_assert_eq!(
                    cached,
                    fresh_total(&mut fleet),
                    "op {} on server {}, threads {}",
                    op,
                    i,
                    threads
                );
            }
        }
    }
}
