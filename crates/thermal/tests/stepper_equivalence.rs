//! Invalidation-correctness properties for the cached
//! [`TransientSolver`]: a persistent solver whose caches survive across
//! steps must produce the same trajectory as the per-step
//! reassemble-and-refactor path (a fresh [`TransientSolver`] per step,
//! which therefore re-reads every input each call), across randomized
//! networks and mid-run input changes.

use leakctl_thermal::{
    ConvectionModel, Coupling, ThermalNetwork, ThermalNetworkBuilder, TransientSolver,
};
use leakctl_units::{AirFlow, Celsius, SimDuration, ThermalCapacitance, ThermalConductance, Watts};
use proptest::prelude::*;

/// Handles into a randomized chain network.
struct Rig {
    net: ThermalNetwork,
    dies: Vec<leakctl_thermal::NodeId>,
    boundary: leakctl_thermal::NodeId,
    channel: leakctl_thermal::FlowChannelId,
}

/// Builds a randomized multi-branch network: `branches` die→sink chains
/// convecting into a shared air node that couples to ambient, with one
/// flow channel driving every convective edge.
fn build_rig(
    branches: usize,
    caps: &[f64],
    conductances: &[f64],
    powers: &[f64],
    ambient: f64,
    cfm: f64,
) -> Rig {
    let mut b = ThermalNetworkBuilder::new();
    let air = b.add_node("air", ThermalCapacitance::new(20.0 + caps[0]));
    let amb = b.add_boundary("ambient", Celsius::new(ambient));
    let channel = b.add_flow_channel("chassis");
    b.connect(
        air,
        amb,
        Coupling::Conductance(ThermalConductance::new(conductances[0])),
    )
    .unwrap();
    b.connect_directed(
        amb,
        air,
        Coupling::Advective {
            channel,
            fraction: 1.0,
        },
    )
    .unwrap();
    let mut dies = Vec::new();
    for i in 0..branches {
        let die = b.add_node(&format!("die{i}"), ThermalCapacitance::new(caps[1 + 2 * i]));
        let sink = b.add_node(
            &format!("sink{i}"),
            ThermalCapacitance::new(caps[2 + 2 * i]),
        );
        b.connect(
            die,
            sink,
            Coupling::Conductance(ThermalConductance::new(conductances[1 + i])),
        )
        .unwrap();
        let model = ConvectionModel::turbulent(
            ThermalConductance::new(conductances[1 + branches + i]),
            AirFlow::from_cfm(300.0),
        );
        b.connect(sink, air, Coupling::Convective { channel, model })
            .unwrap();
        dies.push(die);
    }
    let mut net = b.build().unwrap();
    net.set_flow(channel, AirFlow::from_cfm(cfm)).unwrap();
    for (die, p) in dies.iter().zip(powers) {
        net.set_power(*die, Watts::new(*p)).unwrap();
    }
    Rig {
        net,
        dies,
        boundary: amb,
        channel,
    }
}

fn assert_trajectories_match(a: &[f64], b: &[f64]) {
    for (x, y) in a.iter().zip(b) {
        assert!(
            (x - y).abs() <= 1e-12 * x.abs().max(1.0),
            "cached {x} vs reference {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A persistent cached solver must match the per-step assemble path
    /// exactly, including across mid-run flow, power and boundary
    /// changes that invalidate each cache layer.
    #[test]
    fn cached_stepper_equals_per_step_assembly(
        branches in 1usize..4,
        caps in prop::collection::vec(20.0..900.0f64, 9),
        conductances in prop::collection::vec(0.8..12.0f64, 9),
        powers in prop::collection::vec(0.0..150.0f64, 4),
        ambient in 15.0..35.0f64,
        cfm in 60.0..500.0f64,
        flow_change_at in 10usize..40,
        power_change_at in 10usize..40,
        boundary_change_at in 10usize..40,
        dt_ms in 200u64..1500,
    ) {
        let Rig { mut net, dies, boundary, channel } =
            build_rig(branches, &caps, &conductances, &powers, ambient, cfm);
        let mut solver = TransientSolver::new(&net);
        let mut cached = net.uniform_state(Celsius::new(ambient));
        let mut reference = net.uniform_state(Celsius::new(ambient));
        let dt = SimDuration::from_millis(dt_ms);
        for step in 0..50 {
            if step == flow_change_at {
                net.set_flow(channel, AirFlow::from_cfm(cfm * 1.7 + 20.0)).unwrap();
            }
            if step == power_change_at {
                net.set_power(dies[0], Watts::new(powers[0] * 0.5 + 10.0)).unwrap();
            }
            if step == boundary_change_at {
                net.set_boundary(boundary, Celsius::new(ambient + 4.0)).unwrap();
            }
            // Persistent solver: caches carry over from previous steps
            // and must self-invalidate. Reference: a throwaway solver
            // re-reads everything.
            solver.step(&net, &mut cached, dt).unwrap();
            TransientSolver::new(&net).step(&net, &mut reference, dt).unwrap();
        }
        let got: Vec<f64> = dies.iter().map(|&d| net.temperature(&cached, d).degrees()).collect();
        let want: Vec<f64> =
            dies.iter().map(|&d| net.temperature(&reference, d).degrees()).collect();
        assert_trajectories_match(&got, &want);
    }

    /// Redundant writes (same value) must not disturb the trajectory
    /// either — they are exactly the no-invalidation fast path.
    #[test]
    fn redundant_writes_are_noops(
        p in 10.0..200.0f64,
        cfm in 60.0..400.0f64,
    ) {
        let caps = vec![50.0; 9];
        let gs = vec![4.0; 9];
        let powers = vec![p; 4];
        let Rig { mut net, dies, boundary: _, channel } = build_rig(2, &caps, &gs, &powers, 24.0, cfm);
        let mut solver = TransientSolver::new(&net);
        let mut noisy = net.uniform_state(Celsius::new(24.0));
        let dt = SimDuration::from_secs(1);
        for _ in 0..30 {
            // Re-set identical values every step.
            net.set_flow(channel, AirFlow::from_cfm(cfm)).unwrap();
            net.set_power(dies[0], Watts::new(p)).unwrap();
            solver.step(&net, &mut noisy, dt).unwrap();
        }
        let mut quiet_solver = TransientSolver::new(&net);
        let mut quiet = net.uniform_state(Celsius::new(24.0));
        for _ in 0..30 {
            quiet_solver.step(&net, &mut quiet, dt).unwrap();
        }
        for (&die, _) in dies.iter().zip(0..) {
            let a = net.temperature(&noisy, die).degrees();
            let b = net.temperature(&quiet, die).degrees();
            prop_assert!((a - b).abs() == 0.0, "redundant writes changed result: {a} vs {b}");
        }
    }
}
