//! Criterion bench for **rack-scale** stepping: the shared-factorization
//! kernel a resident fleet group runs (`BatchSolver::prepare` +
//! `SharedKernel::step_racks`, through `RackKernel`) against
//! independent per-server solves, the same kernel thread-sharded, and
//! the CSR sparse backend against dense at room-scale node counts.
//!
//! Run with `cargo bench -p leakctl-bench --bench rack_scale`.

use criterion::{criterion_group, criterion_main, Criterion};
use leakctl_bench::{room_network, RackKernel};
use leakctl_thermal::{CsrTransientSolver, DenseTransientSolver, ShardPlan, TransientSolver};
use leakctl_units::{AirFlow, Celsius, SimDuration, Watts};

fn bench_rack_scale(c: &mut Criterion) {
    // One-shot shape report: the batched kernel must warm its dies.
    let mut probe = RackKernel::new(16, 1);
    probe.step_batched(300);
    let t = probe.max_temperature().degrees();
    eprintln!("[rack_scale] 16-lane kernel after 300 s: max {t:.1} C");
    assert!(t > 30.0, "batched lanes must heat up");

    let mut group = c.benchmark_group("rack_scale");
    group.sample_size(10);
    // Batched stepping at two rack sizes; one iteration = a block of
    // steps so per-iteration overhead is negligible.
    const BLOCK: u64 = 200;
    for servers in [32usize, 128] {
        group.bench_function(format!("batch{servers}_200steps"), |b| {
            let mut kernel = RackKernel::new(servers, 1);
            kernel.step_batched(1);
            b.iter(|| {
                kernel.step_batched(BLOCK);
                kernel.max_temperature()
            })
        });
    }
    group.bench_function("batch128_dynamic_200steps", |b| {
        let mut kernel = RackKernel::new(128, 1);
        kernel.step_batched_dynamic(1);
        b.iter(|| {
            kernel.step_batched_dynamic(BLOCK);
            kernel.max_temperature()
        })
    });
    // Independent per-server solvers on the same lanes, for the
    // apples-to-apples thermal-only comparison.
    group.bench_function("scalar128_200steps", |b| {
        let mut solvers: Vec<(leakctl_thermal::ThermalNetwork, _, _)> = (0..128)
            .map(|_| {
                let (mut net, dies, flow) = leakctl_bench::server_like_network(2);
                net.set_flow(flow, AirFlow::from_cfm(250.0)).unwrap();
                for &die in &dies {
                    net.set_power(die, Watts::new(80.0)).unwrap();
                }
                let state = net.uniform_state(Celsius::new(24.0));
                let solver = TransientSolver::new(&net);
                (net, state, solver)
            })
            .collect();
        let dt = SimDuration::from_secs(1);
        b.iter(|| {
            for _ in 0..BLOCK {
                for (net, state, solver) in &mut solvers {
                    solver.step(net, state, dt).unwrap();
                }
            }
            solvers[0].1.max_temperature()
        })
    });
    group.finish();

    // Thread-sharded stepping (one prepare, then each shard's run on
    // its own worker): single worker vs the environment's plan
    // (LEAKCTL_THREADS / machine parallelism). Results are
    // bit-identical; only wall-clock moves.
    let mut group = c.benchmark_group("rack_sharded");
    group.sample_size(10);
    let env_threads = ShardPlan::from_env().threads();
    for threads in [1usize, env_threads] {
        group.bench_function(format!("shard128_t{threads}_200steps"), |b| {
            let mut kernel = RackKernel::new(128, threads);
            kernel.step_many(1);
            b.iter(|| {
                kernel.step_many(BLOCK);
                kernel.max_temperature()
            })
        });
        if env_threads == 1 {
            break;
        }
    }
    group.finish();

    // CSR vs dense at a room-scale node count (211 nodes).
    let mut group = c.benchmark_group("csr_vs_dense");
    group.sample_size(10);
    let sections = 70;
    for sparse in [false, true] {
        let name = if sparse {
            "room211_csr_50steps"
        } else {
            "room211_dense_50steps"
        };
        group.bench_function(name, |b| {
            let (mut net, dies, flow) = room_network(sections);
            net.set_flow(flow, AirFlow::new(0.5)).unwrap();
            for (i, &die) in dies.iter().enumerate() {
                net.set_power(die, Watts::new(60.0 + (i % 7) as f64))
                    .unwrap();
            }
            let mut state = net.uniform_state(Celsius::new(18.0));
            let dt = SimDuration::from_secs(1);
            if sparse {
                let mut solver = CsrTransientSolver::with_backend(&net);
                b.iter(|| {
                    for _ in 0..50 {
                        solver.step(&net, &mut state, dt).unwrap();
                    }
                    state.max_temperature()
                })
            } else {
                let mut solver = DenseTransientSolver::with_backend(&net);
                b.iter(|| {
                    for _ in 0..50 {
                        solver.step(&net, &mut state, dt).unwrap();
                    }
                    state.max_temperature()
                })
            }
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rack_scale);
criterion_main!(benches);
