//! Accuracy and stability checks of the backward-Euler transient in
//! [`TransientSolver`](crate::TransientSolver) against the analytic
//! single-RC solution. Test-only: the solver itself lives in `stepper`.

mod tests {
    use crate::network::{Coupling, ThermalNetworkBuilder};
    use crate::stepper::TransientSolver;
    use leakctl_units::{Celsius, SimDuration, ThermalCapacitance, ThermalConductance, Watts};

    /// Single RC: C = 200 J/K, g = 2 W/K → τ = 100 s; P = 100 W,
    /// ambient 24 °C → final 74 °C.
    fn single_rc() -> (crate::ThermalNetwork, crate::NodeId) {
        let mut b = ThermalNetworkBuilder::new();
        let die = b.add_node("die", ThermalCapacitance::new(200.0));
        let amb = b.add_boundary("amb", Celsius::new(24.0));
        b.connect(
            die,
            amb,
            Coupling::Conductance(ThermalConductance::new(2.0)),
        )
        .unwrap();
        let mut net = b.build().unwrap();
        net.set_power(die, Watts::new(100.0)).unwrap();
        (net, die)
    }

    fn analytic(t: f64) -> f64 {
        74.0 + (24.0 - 74.0) * (-t / 100.0).exp()
    }

    #[test]
    fn backward_euler_matches_analytic_solution() {
        let (net, die) = single_rc();
        let mut solver = TransientSolver::new(&net);
        let mut st = net.uniform_state(Celsius::new(24.0));
        let dt = SimDuration::from_millis(500);
        for _ in 0..600 {
            solver.step(&net, &mut st, dt).unwrap();
        }
        let expect = analytic(300.0);
        let got = net.temperature(&st, die).degrees();
        assert!((got - expect).abs() < 0.5, "{got} vs analytic {expect}");
    }

    #[test]
    fn backward_euler_stable_at_huge_steps() {
        let (net, die) = single_rc();
        let mut solver = TransientSolver::new(&net);
        let mut st = net.uniform_state(Celsius::new(24.0));
        // dt = 10·τ — an explicit method would explode.
        for _ in 0..20 {
            solver
                .step(&net, &mut st, SimDuration::from_secs(1_000))
                .unwrap();
        }
        let got = net.temperature(&st, die).degrees();
        assert!((got - 74.0).abs() < 0.5, "settled at {got}");
    }

    #[test]
    fn zero_step_is_noop() {
        let (net, die) = single_rc();
        let mut st = net.uniform_state(Celsius::new(24.0));
        TransientSolver::new(&net)
            .step(&net, &mut st, SimDuration::ZERO)
            .unwrap();
        assert_eq!(net.temperature(&st, die), Celsius::new(24.0));
    }

    #[test]
    fn run_substeps_to_target() {
        let (net, die) = single_rc();
        let mut st = net.uniform_state(Celsius::new(24.0));
        TransientSolver::new(&net)
            .run(
                &net,
                &mut st,
                SimDuration::from_secs(300),
                SimDuration::from_secs(1),
            )
            .unwrap();
        assert!((net.temperature(&st, die).degrees() - analytic(300.0)).abs() < 0.3);
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let (net, die) = single_rc();
        let ss = net.steady_state().unwrap();
        let mut st = net.uniform_state(Celsius::new(24.0));
        TransientSolver::new(&net)
            .run(
                &net,
                &mut st,
                SimDuration::from_secs(2_000),
                SimDuration::from_secs(1),
            )
            .unwrap();
        let diff =
            (net.temperature(&st, die).degrees() - net.temperature(&ss, die).degrees()).abs();
        assert!(diff < 1e-3, "transient end {diff} K from steady state");
    }
}
