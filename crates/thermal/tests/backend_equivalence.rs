//! Equivalence properties for the solver backends and the batch
//! engine: whatever path steps the network — dense per-server, CSR
//! sparse, or the shared kernel over packed or thread-sharded lanes,
//! whole or one flow class at a time — the trajectory must match the
//! dense
//! per-server reference to ≤ 1e-12 relative, or 1e-9 on random room
//! air networks (and the sharded paths must be *bit-identical* across
//! thread and shard counts), across randomized topologies, batch sizes
//! and mid-run input changes.

use leakctl_thermal::{
    BatchSolver, Coupling, CsrTransientSolver, DenseTransientSolver, PackedLanes, RackSpan,
    RoomAirModel, RoomAirSpec, ShardPlan, ThermalError, ThermalNetwork, ThermalNetworkBuilder,
    ThermalState,
};
use leakctl_units::{AirFlow, Celsius, SimDuration, ThermalCapacitance, ThermalConductance, Watts};
use proptest::prelude::*;

/// Handles into a randomized multi-branch network.
struct Rig {
    net: ThermalNetwork,
    dies: Vec<leakctl_thermal::NodeId>,
    boundary: leakctl_thermal::NodeId,
    channel: leakctl_thermal::FlowChannelId,
}

/// Builds a randomized multi-branch network: `branches` die→sink chains
/// convecting into a shared air node that couples to ambient, with one
/// flow channel driving every convective edge. Identical parameters
/// build structurally identical networks (shared `structure_hash`), so
/// repeated calls can be pooled in one batch.
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
        let model = leakctl_thermal::ConvectionModel::turbulent(
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

/// The rigs' power injections as one slot-major block
/// (`[slot * rigs + lane]`), the layout `SharedKernel` reads. Only a
/// rig's dies carry power.
fn power_block(rigs: &[Rig]) -> Vec<f64> {
    let n = rigs[0].net.state_count();
    let mut block = vec![0.0; n * rigs.len()];
    for (lane, rig) in rigs.iter().enumerate() {
        for &die in &rig.dies {
            let slot = rig.net.state_slot(die).unwrap();
            block[slot * rigs.len() + lane] = rig.net.power(die).value();
        }
    }
    block
}

fn assert_close(a: &[f64], b: &[f64], what: &str) {
    assert_within(a, b, 1e-12, what);
}

fn assert_within(a: &[f64], b: &[f64], rel: f64, what: &str) {
    for (x, y) in a.iter().zip(b) {
        assert!(
            (x - y).abs() <= rel * x.abs().max(1.0),
            "{what}: {x} vs reference {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The CSR backend must track the dense backend to ≤ 1e-12 on the
    /// same randomized network, across mid-run
    /// flow, power and boundary changes that invalidate each cache
    /// layer and force sparse refactorizations.
    #[test]
    fn csr_backend_tracks_dense_across_random_topologies(
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
        let mut rig = build_rig(branches, &caps, &conductances, &powers, ambient, cfm);
        let mut dense = DenseTransientSolver::with_backend(&rig.net);
        let mut csr = CsrTransientSolver::with_backend(&rig.net);
        let mut sd = rig.net.uniform_state(Celsius::new(ambient));
        let mut sc = rig.net.uniform_state(Celsius::new(ambient));
        let dt = SimDuration::from_millis(dt_ms);
        for step in 0..60 {
            if step == flow_change_at {
                rig.net.set_flow(rig.channel, AirFlow::from_cfm(cfm * 1.7)).unwrap();
            }
            if step == power_change_at {
                rig.net.set_power(rig.dies[0], Watts::new(180.0)).unwrap();
            }
            if step == boundary_change_at {
                rig.net.set_boundary(rig.boundary, Celsius::new(ambient + 4.0)).unwrap();
            }
            dense.step(&rig.net, &mut sd, dt).unwrap();
            csr.step(&rig.net, &mut sc, dt).unwrap();
        }
        assert_close(sc.temperatures(), sd.temperatures(), "csr");
    }

    /// Batched stepping — the shared kernel over packed lanes, whole
    /// while their flows agree and one flow class at a time once they
    /// diverge — must track independent dense per-server solvers to
    /// ≤ 1e-12 across batch sizes and mid-run per-lane flow/power
    /// divergence.
    #[test]
    fn batched_tracks_dense_per_server(
        batch in 1usize..5,
        branches in 1usize..3,
        caps in prop::collection::vec(20.0..900.0f64, 7),
        conductances in prop::collection::vec(0.8..12.0f64, 7),
        base_power in 20.0..120.0f64,
        ambient in 15.0..35.0f64,
        cfm in 60.0..500.0f64,
        flow_change_at in 5usize..30,
        power_change_at in 5usize..30,
    ) {
        let powers: Vec<f64> = (0..branches).map(|i| base_power + 7.0 * i as f64).collect();
        let mut rigs: Vec<Rig> = (0..batch)
            .map(|_| build_rig(branches, &caps, &conductances, &powers, ambient, cfm))
            .collect();
        // Diverge lane powers so right-hand sides differ.
        for (lane, rig) in rigs.iter_mut().enumerate() {
            rig.net
                .set_power(rig.dies[0], Watts::new(base_power + 11.0 * lane as f64))
                .unwrap();
        }
        let dt = SimDuration::from_secs(1);

        // Reference: one dense solver per lane.
        let mut reference: Vec<_> = rigs
            .iter()
            .map(|r| {
                (
                    DenseTransientSolver::with_backend(&r.net),
                    r.net.uniform_state(Celsius::new(ambient)),
                )
            })
            .collect();
        let mut solver = BatchSolver::new(&rigs[0].net);
        let mut bound = vec![0.0; rigs[0].net.state_count()];
        let mut packed = PackedLanes::pack(
            &reference.iter().map(|(_, s)| s.clone()).collect::<Vec<_>>(),
        );
        // Each lane's flow, to partition the lanes into flow classes.
        let mut flows = vec![cfm; batch];

        for step in 0..50 {
            if step == power_change_at {
                let rig = &mut rigs[0];
                rig.net.set_power(rig.dies[0], Watts::new(200.0)).unwrap();
            }
            if step == flow_change_at && batch > 1 {
                // Split the batch into two flow classes mid-run.
                let rig = &mut rigs[1];
                flows[1] = cfm * 2.1;
                rig.net.set_flow(rig.channel, AirFlow::from_cfm(flows[1])).unwrap();
            }
            for (rig, (solver, state)) in rigs.iter().zip(reference.iter_mut()) {
                solver.step(&rig.net, state, dt).unwrap();
            }
            let powers = power_block(&rigs);
            let mut done = vec![false; batch];
            for first in 0..batch {
                if done[first] {
                    continue;
                }
                let class: Vec<usize> = (first..batch)
                    .filter(|&lane| flows[lane].to_bits() == flows[first].to_bits())
                    .collect();
                for &lane in &class {
                    done[lane] = true;
                }
                let net = &rigs[first].net;
                solver.begin_step();
                let prepared = solver.prepare(net, dt).unwrap();
                net.assemble_boundary_source_into(&mut bound);
                let kernel = solver.kernel(&prepared, &bound, net);
                let spans = [RackSpan {
                    lanes: 0..batch,
                    rack: 0,
                }];
                kernel
                    .step_lanes(&mut packed, &powers, &spans, &class)
                    .unwrap();
            }
        }
        let classes = if batch > 1 { 2 } else { 1 };
        prop_assert_eq!(solver.group_count(), classes);
        let mut state = rigs[0].net.uniform_state(Celsius::new(0.0));
        for (lane, (_, ref_state)) in reference.iter().enumerate() {
            packed.unpack_lane_into(lane, &mut state);
            assert_close(
                state.temperatures(),
                ref_state.temperatures(),
                &format!("lane {lane} (packed batch)"),
            );
        }
    }

    /// At rack scale (above the CSR auto-selection threshold) the
    /// sparse backend must track dense on a long randomized chain,
    /// including a mid-run flow change that forces a numeric
    /// refactorization over the cached symbolic analysis.
    #[test]
    fn csr_tracks_dense_at_rack_scale(
        sections in 25usize..45,
        cap_scale in 0.5..2.0f64,
        g_chain in 2.0..9.0f64,
        power in 10.0..90.0f64,
        cfm in 80.0..400.0f64,
        flow_change_at in 5usize..20,
    ) {
        // A chain of die→sink pairs hanging off a shared duct of air
        // nodes: 3·sections + 1 > 64 state nodes for every drawn size.
        let mut b = ThermalNetworkBuilder::new();
        let amb = b.add_boundary("amb", Celsius::new(22.0));
        let channel = b.add_flow_channel("duct");
        let mut upstream = b.add_node("plenum", ThermalCapacitance::new(50.0 * cap_scale));
        b.connect(
            upstream,
            amb,
            Coupling::Conductance(ThermalConductance::new(1.0)),
        )
        .unwrap();
        b.connect_directed(
            amb,
            upstream,
            Coupling::Advective { channel, fraction: 1.0 },
        )
        .unwrap();
        let mut dies = Vec::new();
        for i in 0..sections {
            let air = b.add_node(&format!("air{i}"), ThermalCapacitance::new(15.0 * cap_scale));
            let die = b.add_node(&format!("die{i}"), ThermalCapacitance::new(80.0 * cap_scale));
            let sink = b.add_node(&format!("sink{i}"), ThermalCapacitance::new(300.0 * cap_scale));
            b.connect(
                die,
                sink,
                Coupling::Conductance(ThermalConductance::new(g_chain)),
            )
            .unwrap();
            let model = leakctl_thermal::ConvectionModel::turbulent(
                ThermalConductance::new(3.0),
                AirFlow::from_cfm(300.0),
            );
            b.connect(sink, air, Coupling::Convective { channel, model }).unwrap();
            b.connect_directed(
                upstream,
                air,
                Coupling::Advective { channel, fraction: 1.0 },
            )
            .unwrap();
            b.connect(
                air,
                amb,
                Coupling::Conductance(ThermalConductance::new(0.3)),
            )
            .unwrap();
            dies.push(die);
            upstream = air;
        }
        let mut net = b.build().unwrap();
        assert!(net.state_count() >= leakctl_thermal::CSR_NODE_THRESHOLD);
        net.set_flow(channel, AirFlow::from_cfm(cfm)).unwrap();
        for (i, die) in dies.iter().enumerate() {
            net.set_power(*die, Watts::new(power + (i % 5) as f64)).unwrap();
        }
        // The auto backend must pick CSR here.
        let auto = leakctl_thermal::TransientSolver::new(&net);
        assert!(auto.is_sparse());

        let mut dense = DenseTransientSolver::with_backend(&net);
        let mut csr = CsrTransientSolver::with_backend(&net);
        let mut sd = net.uniform_state(Celsius::new(22.0));
        let mut sc = net.uniform_state(Celsius::new(22.0));
        let dt = SimDuration::from_secs(1);
        for step in 0..30 {
            if step == flow_change_at {
                net.set_flow(channel, AirFlow::from_cfm(cfm * 1.6)).unwrap();
            }
            dense.step(&net, &mut sd, dt).unwrap();
            csr.step(&net, &mut sc, dt).unwrap();
        }
        assert_close(sc.temperatures(), sd.temperatures(), "rack-scale chain");
        // Steady states agree too (G factorization path).
        let mut ssd = net.uniform_state(Celsius::new(0.0));
        let mut ssc = net.uniform_state(Celsius::new(0.0));
        dense.steady_state_into(&net, &mut ssd).unwrap();
        csr.steady_state_into(&net, &mut ssc).unwrap();
        assert_close(ssc.temperatures(), ssd.temperatures(), "rack-scale steady state");
    }

    /// The shared kernel over sharded lanes is *bit-identical* across
    /// thread counts {1, 2, 8} and arbitrary shard widths: the work
    /// partition is a pure performance knob. The reference is each lane
    /// stepped alone through a dense scalar solver, with a mid-run
    /// power change.
    #[test]
    fn sharded_stepping_bit_identical_across_thread_and_shard_counts(
        batch in 1usize..10,
        branches in 1usize..3,
        caps in prop::collection::vec(20.0..900.0f64, 7),
        conductances in prop::collection::vec(0.8..12.0f64, 7),
        base_power in 20.0..120.0f64,
        ambient in 15.0..35.0f64,
        cfm in 60.0..500.0f64,
        min_width in 1usize..6,
        power_change_at in 5usize..25,
    ) {
        let powers: Vec<f64> = (0..branches).map(|i| base_power + 7.0 * i as f64).collect();
        let build_rigs = || -> Vec<Rig> {
            let mut rigs: Vec<Rig> = (0..batch)
                .map(|_| build_rig(branches, &caps, &conductances, &powers, ambient, cfm))
                .collect();
            for (lane, rig) in rigs.iter_mut().enumerate() {
                rig.net
                    .set_power(rig.dies[0], Watts::new(base_power + 9.0 * lane as f64))
                    .unwrap();
            }
            rigs
        };
        let dt = SimDuration::from_secs(1);
        let bits = |states: &[ThermalState]| -> Vec<Vec<u64>> {
            states
                .iter()
                .map(|s| s.temperatures().iter().map(|t| t.to_bits()).collect())
                .collect()
        };

        // Reference: each lane alone through a dense scalar solver.
        let mut rigs = build_rigs();
        let mut want: Vec<_> = rigs
            .iter()
            .map(|r| r.net.uniform_state(Celsius::new(ambient)))
            .collect();
        let mut scalar: Vec<_> = rigs
            .iter()
            .map(|r| DenseTransientSolver::with_backend(&r.net))
            .collect();
        for step in 0..30 {
            if step == power_change_at {
                let rig = &mut rigs[0];
                rig.net.set_power(rig.dies[0], Watts::new(190.0)).unwrap();
            }
            for ((solver, rig), state) in scalar.iter_mut().zip(&rigs).zip(want.iter_mut()) {
                solver.step(&rig.net, state, dt).unwrap();
            }
        }
        let reference = bits(&want);

        for threads in [1usize, 2, 8] {
            let mut rigs = build_rigs();
            let plan = ShardPlan::new(threads).with_min_lanes_per_shard(min_width);
            let states: Vec<_> = rigs
                .iter()
                .map(|r| r.net.uniform_state(Celsius::new(ambient)))
                .collect();
            let mut solver = BatchSolver::new(&rigs[0].net);
            let mut bound = vec![0.0; rigs[0].net.state_count()];
            let mut blocks: Vec<_> = plan
                .ranges(states.len())
                .into_iter()
                .map(|range| (range.clone(), PackedLanes::pack(&states[range])))
                .collect();
            for step in 0..30 {
                if step == power_change_at {
                    let rig = &mut rigs[0];
                    rig.net.set_power(rig.dies[0], Watts::new(190.0)).unwrap();
                }
                let net = &rigs[0].net;
                solver.begin_step();
                let prepared = solver.prepare(net, dt).unwrap();
                net.assemble_boundary_source_into(&mut bound);
                let kernel = solver.kernel(&prepared, &bound, net);
                std::thread::scope(|scope| {
                    for (range, block) in &mut blocks {
                        let spans = [RackSpan {
                            lanes: 0..range.len(),
                            rack: 0,
                        }];
                        let (kernel, powers) = (&kernel, power_block(&rigs[range.clone()]));
                        scope.spawn(move || kernel.step_racks(block, &powers, &spans).unwrap());
                    }
                });
            }
            let mut got = states;
            for (range, block) in &blocks {
                for (offset, lane) in range.clone().enumerate() {
                    block.unpack_lane_into(offset, &mut got[lane]);
                }
            }
            prop_assert_eq!(
                &bits(&got),
                &reference,
                "threads {} width {} diverged from the scalar reference",
                threads,
                min_width
            );
        }
    }
}

proptest! {
    // Dense LU on up to 602 air nodes is the slow half of each case.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The room air network is the production CSR network: a derated
    /// CRAH (flow through the `crah_bypass` edge), tile blockage and
    /// recirculation must all step and solve to the dense reference
    /// within 1e-9. At zero capacity no steady state exists, and the
    /// room says so with a typed error while the transient keeps
    /// tracking.
    #[test]
    fn csr_room_air_tracks_dense(
        racks in 32usize..301,
        recirculating in proptest::any::<bool>(),
        beta_draw in 0.0..0.3f64,
        flows in prop::collection::vec(0.5..6.0f64, 300),
        powers in prop::collection::vec(0.0..15_000.0f64, 300),
        blocked_rack in 0usize..300,
        blockage in 0.0..1.0f64,
        capacity_draw in 0.0..1.0f64,
        supply in 14.0..24.0f64,
    ) {
        // β ∈ {0} ∪ (0, 0.3] and capacity ∈ (0, 1].
        let beta = if recirculating { 0.3 - beta_draw } else { 0.0 };
        let capacity = 1.0 - capacity_draw;
        let tile_flows = flows[..racks].iter().map(|&q| AirFlow::new(q)).collect();
        let spec = RoomAirSpec::with_tile_flows(Celsius::new(supply), tile_flows, beta);
        let mut room = RoomAirModel::new(spec).unwrap();
        prop_assert!(room.is_sparse());
        for (rack, &p) in powers[..racks].iter().enumerate() {
            room.set_rack_power(rack, Watts::new(p)).unwrap();
        }
        room.set_tile_blockage(blocked_rack % racks, blockage).unwrap();
        room.set_crah_capacity(capacity).unwrap();

        let net = room.network();
        let mut dense = DenseTransientSolver::with_backend(net);
        let mut csr = CsrTransientSolver::with_backend(net);
        let mut sd = net.uniform_state(Celsius::new(supply));
        let mut sc = net.uniform_state(Celsius::new(supply));
        let dt = SimDuration::from_secs(5);
        for _ in 0..12 {
            dense.step(net, &mut sd, dt).unwrap();
            csr.step(net, &mut sc, dt).unwrap();
        }
        assert_within(sc.temperatures(), sd.temperatures(), 1e-9, "room transient");
        let mut ssd = net.uniform_state(Celsius::new(0.0));
        let mut ssc = net.uniform_state(Celsius::new(0.0));
        dense.steady_state_into(net, &mut ssd).unwrap();
        csr.steady_state_into(net, &mut ssc).unwrap();
        assert_within(ssc.temperatures(), ssd.temperatures(), 1e-9, "room steady state");

        // Full outage: the closed loop still steps alike on both
        // backends, and the room refuses a steady solve or a preview.
        room.set_crah_capacity(0.0).unwrap();
        let net = room.network();
        for _ in 0..4 {
            dense.step(net, &mut sd, dt).unwrap();
            csr.step(net, &mut sc, dt).unwrap();
        }
        assert_within(sc.temperatures(), sd.temperatures(), 1e-9, "room outage transient");
        // The raw backends cannot be asked: `G` is singular only in
        // exact arithmetic, and either LU may meet a rounded non-zero
        // last pivot. The room's check comes before any backend.
        let mut cold = Vec::new();
        prop_assert_eq!(
            room.preview_supply(Celsius::new(supply), &mut cold),
            Err(ThermalError::SingularSystem)
        );
        prop_assert_eq!(room.solve_steady(), Err(ThermalError::SingularSystem));
    }
}
