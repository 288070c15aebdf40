//! Property-based tests for the RC thermal network.

use leakctl_thermal::{ConvectionModel, Coupling, ThermalNetworkBuilder, TransientSolver};
use leakctl_units::{AirFlow, Celsius, SimDuration, ThermalCapacitance, ThermalConductance, Watts};
use proptest::prelude::*;

/// Builds a chain: die — sink — air — ambient with a convective sink-air
/// edge, returning (network, die id, channel id).
fn chain(
    g_die_sink: f64,
    g_sink_air_ref: f64,
    g_air_amb: f64,
    ambient: f64,
) -> (
    leakctl_thermal::ThermalNetwork,
    leakctl_thermal::NodeId,
    leakctl_thermal::FlowChannelId,
) {
    let mut b = ThermalNetworkBuilder::new();
    let die = b.add_node("die", ThermalCapacitance::new(150.0));
    let sink = b.add_node("sink", ThermalCapacitance::new(800.0));
    let air = b.add_node("air", ThermalCapacitance::new(20.0));
    let amb = b.add_boundary("ambient", Celsius::new(ambient));
    b.connect(
        die,
        sink,
        Coupling::Conductance(ThermalConductance::new(g_die_sink)),
    )
    .unwrap();
    let ch = b.add_flow_channel("main");
    let model = ConvectionModel::turbulent(
        ThermalConductance::new(g_sink_air_ref),
        AirFlow::from_cfm(300.0),
    );
    b.connect(sink, air, Coupling::Convective { channel: ch, model })
        .unwrap();
    b.connect(
        air,
        amb,
        Coupling::Conductance(ThermalConductance::new(g_air_amb)),
    )
    .unwrap();
    (b.build().unwrap(), die, ch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Maximum principle: with non-negative injected power, every steady
    /// temperature is at or above ambient.
    #[test]
    fn steady_state_above_ambient(
        p in 0.0..300.0f64,
        g1 in 0.5..10.0f64,
        g2 in 0.5..10.0f64,
        g3 in 5.0..50.0f64,
        cfm in 50.0..600.0f64,
        ambient in 10.0..40.0f64,
    ) {
        let (mut net, die, ch) = chain(g1, g2, g3, ambient);
        net.set_flow(ch, AirFlow::from_cfm(cfm)).unwrap();
        net.set_power(die, Watts::new(p)).unwrap();
        let ss = net.steady_state().unwrap();
        prop_assert!(net.temperature(&ss, die).degrees() >= ambient - 1e-9);
    }

    /// More airflow never makes the die hotter.
    #[test]
    fn die_temp_monotone_in_flow(
        p in 10.0..300.0f64,
        cfm_lo in 50.0..300.0f64,
        extra in 10.0..400.0f64,
    ) {
        let (mut net, die, ch) = chain(3.0, 4.0, 20.0, 24.0);
        net.set_power(die, Watts::new(p)).unwrap();
        net.set_flow(ch, AirFlow::from_cfm(cfm_lo)).unwrap();
        let t_lo = net.temperature(&net.steady_state().unwrap(), die);
        net.set_flow(ch, AirFlow::from_cfm(cfm_lo + extra)).unwrap();
        let t_hi = net.temperature(&net.steady_state().unwrap(), die);
        prop_assert!(t_hi <= t_lo, "flow up, temp {t_lo} -> {t_hi}");
    }

    /// Steady-state temperature rise is linear in injected power
    /// (the network is linear at fixed flows).
    #[test]
    fn superposition_in_power(
        p in 1.0..200.0f64,
        scale in 1.5..4.0f64,
    ) {
        let (mut net, die, ch) = chain(3.0, 4.0, 20.0, 24.0);
        net.set_flow(ch, AirFlow::from_cfm(200.0)).unwrap();
        net.set_power(die, Watts::new(p)).unwrap();
        let rise1 = net.temperature(&net.steady_state().unwrap(), die).degrees() - 24.0;
        net.set_power(die, Watts::new(p * scale)).unwrap();
        let rise2 = net.temperature(&net.steady_state().unwrap(), die).degrees() - 24.0;
        prop_assert!((rise2 - rise1 * scale).abs() < 1e-6 * rise2.abs().max(1.0));
    }

    /// Backward Euler always lands on the steady state
    /// eventually, from any initial temperature.
    #[test]
    fn transient_converges_from_any_start(
        p in 0.0..200.0f64,
        t0 in -20.0..120.0f64,
    ) {
        let (mut net, die, ch) = chain(3.0, 4.0, 20.0, 24.0);
        net.set_flow(ch, AirFlow::from_cfm(200.0)).unwrap();
        net.set_power(die, Watts::new(p)).unwrap();
        let ss = net.steady_state().unwrap();
        let mut st = net.uniform_state(Celsius::new(t0));
        TransientSolver::new(&net)
            .run(
                &net,
                &mut st,
                SimDuration::from_hours(4),
                SimDuration::from_secs(10),
            )
            .unwrap();
        let diff = (net.temperature(&st, die).degrees()
            - net.temperature(&ss, die).degrees())
        .abs();
        prop_assert!(diff < 0.05, "still {diff} K away after 4 h");
    }

    /// Backward Euler is first-order accurate: halving the step
    /// roughly halves the die error against a fine-step run.
    #[test]
    fn backward_euler_converges_at_first_order(p in 10.0..150.0f64) {
        let (mut net, die, ch) = chain(3.0, 4.0, 20.0, 24.0);
        net.set_flow(ch, AirFlow::from_cfm(250.0)).unwrap();
        net.set_power(die, Watts::new(p)).unwrap();
        let horizon = SimDuration::from_mins(10);
        let die_after = |dt: SimDuration| {
            let mut st = net.uniform_state(Celsius::new(24.0));
            TransientSolver::new(&net).run(&net, &mut st, horizon, dt).unwrap();
            net.temperature(&st, die).degrees()
        };
        let fine = die_after(SimDuration::from_millis(10));
        let coarse_err = (die_after(SimDuration::from_secs(2)) - fine).abs();
        let half_err = (die_after(SimDuration::from_secs(1)) - fine).abs();
        let ratio = coarse_err / half_err;
        prop_assert!(
            (1.7..2.3).contains(&ratio),
            "error ratio {ratio} (dt 2 s: {coarse_err} K, dt 1 s: {half_err} K)"
        );
    }
}
