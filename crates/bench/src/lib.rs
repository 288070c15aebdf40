//! Shared plumbing for the reproduction binaries (`repro-*`) and the
//! Criterion benches: one place that runs the paper's full pipeline —
//! characterize → fit → build LUT — at paper fidelity or in a reduced
//! "quick" configuration.

#![warn(missing_docs)]

pub mod building;
pub mod faults;
pub mod sched;
pub mod setpoint;

use leakctl::prelude::*;
use leakctl::{
    build_lut_from_characterization, characterize, fit_models, CharacterizationData,
    CharacterizeOptions, FittedModels,
};

/// Everything the evaluation stages need from the identification
/// stages.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// The measured characterization grid.
    pub data: CharacterizationData,
    /// The identified Eqn. 2 constants.
    pub fitted: FittedModels,
    /// The generated optimal-fan-speed table.
    pub lut: LookupTable,
}

/// Runs the identification pipeline at full paper fidelity
/// (8 utilizations × 5 fan speeds, 45-minute protocol per point).
///
/// # Panics
///
/// Panics when any stage fails — the calibrated configuration is known
/// to succeed, so a failure indicates a regression worth crashing on in
/// a reproduction binary.
#[must_use]
pub fn paper_pipeline(seed: u64) -> Pipeline {
    pipeline(&CharacterizeOptions::paper(), seed)
}

/// Runs the identification pipeline on the reduced grid (for smoke
/// tests and ablations).
///
/// # Panics
///
/// Panics when any stage fails.
#[must_use]
pub fn quick_pipeline(seed: u64) -> Pipeline {
    pipeline(&CharacterizeOptions::quick(), seed)
}

fn pipeline(options: &CharacterizeOptions, seed: u64) -> Pipeline {
    let data = characterize(options, seed).expect("characterization succeeds");
    let fitted = fit_models(&data).expect("fitting succeeds");
    let lut = build_lut_from_characterization(&data, &fitted).expect("LUT build succeeds");
    Pipeline { data, fitted, lut }
}

/// The seed used by every reproduction binary, so their outputs agree
/// with each other.
pub const REPRO_SEED: u64 = 42;

/// A server-shaped thermal network with a configurable socket count:
/// ambient boundary, shared DIMM air volume, two DIMM banks, and
/// `sockets` die→sink→air chains on one chassis flow channel.
///
/// Returns the network, the die nodes (one per socket) and the chassis
/// flow channel. Every call builds an identical structure, so the
/// instances share a
/// [`structure_hash`](leakctl_thermal::ThermalNetwork::structure_hash)
/// and can be pooled in one [`BatchSolver`](leakctl_thermal::BatchSolver).
///
/// # Panics
///
/// Panics when construction fails — the topology is static and known
/// to build.
#[must_use]
pub fn server_like_network(
    sockets: usize,
) -> (
    leakctl_thermal::ThermalNetwork,
    Vec<leakctl_thermal::NodeId>,
    leakctl_thermal::FlowChannelId,
) {
    use leakctl_thermal::{ConvectionModel, Coupling, ThermalNetworkBuilder};
    use leakctl_units::{AirFlow, Celsius, ThermalCapacitance, ThermalConductance};

    let mut b = ThermalNetworkBuilder::new();
    let ambient = b.add_boundary("ambient", Celsius::new(24.0));
    let flow = b.add_flow_channel("chassis");
    let sink_conv =
        ConvectionModel::turbulent(ThermalConductance::new(3.4), AirFlow::from_cfm(300.0));
    let dimm_conv =
        ConvectionModel::turbulent(ThermalConductance::new(12.0), AirFlow::from_cfm(300.0));

    let air_dimm = b.add_node("air_dimm", ThermalCapacitance::new(15.0));
    b.connect_directed(
        ambient,
        air_dimm,
        Coupling::Advective {
            channel: flow,
            fraction: 1.0,
        },
    )
    .expect("static edge");
    b.connect(
        air_dimm,
        ambient,
        Coupling::Conductance(ThermalConductance::new(0.5)),
    )
    .expect("static edge");
    for bank in 0..2 {
        let node = b.add_node(&format!("dimm_bank{bank}"), ThermalCapacitance::new(900.0));
        b.connect(
            node,
            air_dimm,
            Coupling::Convective {
                channel: flow,
                model: dimm_conv,
            },
        )
        .expect("static edge");
    }
    let mut dies = Vec::with_capacity(sockets);
    for s in 0..sockets {
        let die = b.add_node(&format!("cpu{s}_die"), ThermalCapacitance::new(80.0));
        let sink = b.add_node(&format!("cpu{s}_sink"), ThermalCapacitance::new(400.0));
        let air = b.add_node(&format!("cpu{s}_air"), ThermalCapacitance::new(15.0));
        b.connect(
            die,
            sink,
            Coupling::Conductance(ThermalConductance::new(10.0)),
        )
        .expect("static edge");
        b.connect(
            sink,
            air,
            Coupling::Convective {
                channel: flow,
                model: sink_conv,
            },
        )
        .expect("static edge");
        b.connect_directed(
            air_dimm,
            air,
            Coupling::Advective {
                channel: flow,
                fraction: 1.0 / sockets as f64,
            },
        )
        .expect("static edge");
        b.connect(
            air,
            ambient,
            Coupling::Conductance(ThermalConductance::new(0.5)),
        )
        .expect("static edge");
        dies.push(die);
    }
    let net = b.build().expect("static network builds");
    (net, dies, flow)
}

/// The canonical 3-socket stepping-kernel network (see
/// [`server_like_network`]), with 90 W on the first die.
///
/// Returns the network, the first die node and the chassis flow
/// channel.
///
/// # Panics
///
/// Panics when construction fails — the topology is static and known
/// to build.
#[must_use]
pub fn bench_network() -> (
    leakctl_thermal::ThermalNetwork,
    leakctl_thermal::NodeId,
    leakctl_thermal::FlowChannelId,
) {
    use leakctl_units::Watts;
    let (mut net, dies, flow) = server_like_network(3);
    let die = dies[0];
    net.set_power(die, Watts::new(90.0))
        .expect("die accepts power");
    (net, die, flow)
}

/// A room-scale thermal network: `sections` server-like die→sink→air
/// chains strung along one airflow path (each section's air volume is
/// advectively fed by the previous one), all on a single flow channel —
/// `3·sections + 1` capacitive nodes with sparse structure, the regime
/// the CSR backend exists for.
///
/// Returns the network, the die nodes and the flow channel.
///
/// # Panics
///
/// Panics when construction fails — the topology is static and known
/// to build.
#[must_use]
pub fn room_network(
    sections: usize,
) -> (
    leakctl_thermal::ThermalNetwork,
    Vec<leakctl_thermal::NodeId>,
    leakctl_thermal::FlowChannelId,
) {
    use leakctl_thermal::{ConvectionModel, Coupling, ThermalNetworkBuilder};
    use leakctl_units::{AirFlow, Celsius, ThermalCapacitance, ThermalConductance};

    assert!(sections > 0, "room needs at least one section");
    let mut b = ThermalNetworkBuilder::new();
    let ambient = b.add_boundary("crah_supply", Celsius::new(18.0));
    let flow = b.add_flow_channel("aisle");
    let sink_conv =
        ConvectionModel::turbulent(ThermalConductance::new(3.4), AirFlow::from_cfm(300.0));
    let plenum = b.add_node("plenum", ThermalCapacitance::new(200.0));
    b.connect_directed(
        ambient,
        plenum,
        Coupling::Advective {
            channel: flow,
            fraction: 1.0,
        },
    )
    .expect("static edge");
    b.connect(
        plenum,
        ambient,
        Coupling::Conductance(ThermalConductance::new(1.0)),
    )
    .expect("static edge");
    let mut upstream = plenum;
    let mut dies = Vec::with_capacity(sections);
    for s in 0..sections {
        let die = b.add_node(&format!("s{s}_die"), ThermalCapacitance::new(80.0));
        let sink = b.add_node(&format!("s{s}_sink"), ThermalCapacitance::new(400.0));
        let air = b.add_node(&format!("s{s}_air"), ThermalCapacitance::new(15.0));
        b.connect(
            die,
            sink,
            Coupling::Conductance(ThermalConductance::new(10.0)),
        )
        .expect("static edge");
        b.connect(
            sink,
            air,
            Coupling::Convective {
                channel: flow,
                model: sink_conv,
            },
        )
        .expect("static edge");
        b.connect_directed(
            upstream,
            air,
            Coupling::Advective {
                channel: flow,
                fraction: 1.0,
            },
        )
        .expect("static edge");
        b.connect(
            air,
            ambient,
            Coupling::Conductance(ThermalConductance::new(0.2)),
        )
        .expect("static edge");
        dies.push(die);
        upstream = air;
    }
    let net = b.build().expect("static network builds");
    (net, dies, flow)
}

/// A ready-to-step instance of [`bench_network`] at the canonical
/// operating point (250 CFM, 24 °C start, backward Euler, 1 s steps).
///
/// Every stepping-kernel measurement — the criterion `steps_per_sec`
/// group, its one-shot summary line, and the `repro-perf` JSON report —
/// drives this one configuration, so they cannot silently drift apart.
#[derive(Debug, Clone)]
pub struct SteppingKernel {
    net: leakctl_thermal::ThermalNetwork,
    solver: leakctl_thermal::TransientSolver,
    state: leakctl_thermal::ThermalState,
}

impl SteppingKernel {
    /// Builds the kernel at the canonical operating point.
    ///
    /// # Panics
    ///
    /// Panics when construction fails (static topology, known to
    /// build).
    #[must_use]
    pub fn new() -> Self {
        use leakctl_units::{AirFlow, Celsius};
        let (mut net, _die, ch) = bench_network();
        net.set_flow(ch, AirFlow::from_cfm(250.0))
            .expect("flow set");
        let solver = leakctl_thermal::TransientSolver::new(&net);
        let state = net.uniform_state(Celsius::new(24.0));
        Self { net, solver, state }
    }

    /// Advances `steps` seconds through the persistent cached solver.
    ///
    /// # Panics
    ///
    /// Panics when a step fails (the kernel network is regular).
    pub fn step_cached(&mut self, steps: u64) {
        use leakctl_units::SimDuration;
        for _ in 0..steps {
            self.solver
                .step(&self.net, &mut self.state, SimDuration::from_secs(1))
                .expect("step succeeds");
        }
    }

    /// Advances `steps` seconds, building a throwaway solver per step so
    /// every step pays the full assembly and factorization.
    ///
    /// # Panics
    ///
    /// Panics when a step fails (the kernel network is regular).
    pub fn step_stateless(&mut self, steps: u64) {
        use leakctl_thermal::TransientSolver;
        use leakctl_units::SimDuration;
        for _ in 0..steps {
            TransientSolver::new(&self.net)
                .step(&self.net, &mut self.state, SimDuration::from_secs(1))
                .expect("step succeeds");
        }
    }

    /// The hottest node temperature of the evolving state (consume the
    /// result so benchmark loops are not optimized away).
    #[must_use]
    pub fn max_temperature(&self) -> leakctl_units::Celsius {
        self.state.max_temperature()
    }
}

impl Default for SteppingKernel {
    fn default() -> Self {
        Self::new()
    }
}

/// A rack of identical server-topology thermal lanes stepped through
/// the kernel a resident `Fleet` group runs:
/// [`BatchSolver::prepare`](leakctl_thermal::BatchSolver::prepare) of
/// one template network, paired with its boundary source by
/// [`BatchSolver::kernel`](leakctl_thermal::BatchSolver::kernel), then
/// [`SharedKernel::step_racks`](leakctl_thermal::SharedKernel::step_racks)
/// over the packed temperatures and power block of each
/// [`ShardPlan`](leakctl_thermal::ShardPlan) range — the
/// measurement kernel behind the `rack_scale` criterion groups and the
/// `repro-rack` servers-stepped/sec report.
///
/// The template is a 2-socket server network (matching the default
/// `ServerConfig` topology: 9 capacitive nodes, one chassis flow
/// channel) at the canonical 250 CFM and 24 °C operating point; it
/// supplies the shared factorization and boundary source. Each lane
/// starts at 24 °C with its own die powers in a slot-major power block
/// per shard. Results are bit-identical for any thread count; only
/// wall-clock changes.
#[derive(Debug)]
pub struct RackKernel {
    template: leakctl_thermal::ThermalNetwork,
    /// State slots of the dies, in socket order.
    die_slots: Vec<usize>,
    /// One per plan range, in lane order.
    shards: Vec<RackShard>,
    solver: leakctl_thermal::BatchSolver,
    /// The template's boundary-source column, every lane's.
    bound: Vec<f64>,
    tick: u64,
}

impl RackKernel {
    /// Builds a kernel of `servers` lanes sharded across `threads`
    /// workers.
    ///
    /// # Panics
    ///
    /// Panics when construction fails (static topology, known to
    /// build).
    #[must_use]
    pub fn new(servers: usize, threads: usize) -> Self {
        use leakctl_thermal::{BatchSolver, PackedLanes, ShardPlan};
        use leakctl_units::{AirFlow, Celsius};
        let (mut template, dies, flow) = server_like_network(2);
        template
            .set_flow(flow, AirFlow::from_cfm(250.0))
            .expect("flow");
        let die_slots = dies
            .iter()
            .map(|&die| template.state_slot(die).expect("dies are capacitive"))
            .collect();
        let states = vec![template.uniform_state(Celsius::new(24.0)); servers];
        let n = template.state_count();
        let shards = ShardPlan::new(threads)
            .ranges(servers)
            .into_iter()
            .map(|lanes| RackShard {
                temps: PackedLanes::pack(&states[lanes.clone()]),
                powers: vec![0.0; n * lanes.len()],
                lanes,
            })
            .collect();
        let mut bound = vec![0.0; n];
        template.assemble_boundary_source_into(&mut bound);
        let mut kernel = Self {
            solver: BatchSolver::new(&template),
            bound,
            template,
            die_slots,
            shards,
            tick: 0,
        };
        kernel.set_die_powers(|lane, s| 80.0 + lane as f64 * 0.1 + s as f64);
        kernel
    }

    /// Number of lanes.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.shards.iter().map(|shard| shard.lanes.len()).sum()
    }

    /// Number of shards the lanes split into.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Writes `power(lane, socket)` into every lane's die slots, lane
    /// by lane.
    fn set_die_powers(&mut self, power: impl Fn(usize, usize) -> f64) {
        for shard in &mut self.shards {
            let width = shard.lanes.len();
            for (offset, lane) in shard.lanes.clone().enumerate() {
                for (s, &slot) in self.die_slots.iter().enumerate() {
                    shard.powers[slot * width + offset] = power(lane, s);
                }
            }
        }
    }

    /// Advances every lane by `steps` backward-Euler seconds with
    /// inputs held constant, one prepare per step and the shards in
    /// turn on the calling thread — a resident fleet group's solve in
    /// its steady operating regime (the counterpart of the
    /// `server_step_1s_constant` measurement).
    ///
    /// # Panics
    ///
    /// Panics when a step fails (the kernel network is regular).
    pub fn step_batched(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step_once();
        }
    }

    /// As [`RackKernel::step_batched`], but every lane's die powers are
    /// rewritten before every step (as the leakage–temperature feedback
    /// does in a live fleet) with a cheap per-(step, lane, die) wobble.
    ///
    /// # Panics
    ///
    /// Panics when a step fails (the kernel network is regular).
    pub fn step_batched_dynamic(&mut self, steps: u64) {
        for _ in 0..steps {
            self.tick += 1;
            // Mask instead of modulo so the driver loop stays out of
            // the measured kernel's way.
            let tick = self.tick as u32;
            self.set_die_powers(|lane, s| {
                let wobble = f64::from(
                    tick.wrapping_mul(7)
                        .wrapping_add(lane as u32 * 13 + s as u32)
                        & 127,
                );
                80.0 + 0.01 * wobble
            });
            self.step_once();
        }
    }

    /// Opens a step and prepares the template's factorization.
    fn prepare(&mut self) -> leakctl_thermal::Prepared {
        self.solver.begin_step();
        self.solver
            .prepare(&self.template, leakctl_units::SimDuration::from_secs(1))
            .expect("shared factorization")
    }

    fn step_once(&mut self) {
        let prepared = self.prepare();
        let kernel = self.solver.kernel(&prepared, &self.bound, &self.template);
        for shard in &mut self.shards {
            let whole = shard.whole();
            kernel
                .step_racks(&mut shard.temps, &shard.powers, &whole)
                .expect("step succeeds");
        }
    }

    /// Advances every lane by `steps` backward-Euler seconds with
    /// inputs held constant: one prepare, then one scoped worker per
    /// shard runs that shard's full step sequence with no cross-thread
    /// synchronization (inline when there is one shard) — the
    /// measurement behind `parallel_speedup_x`.
    ///
    /// # Panics
    ///
    /// Panics when a step fails (the kernel network is regular).
    pub fn step_many(&mut self, steps: u64) {
        let prepared = self.prepare();
        let kernel = self.solver.kernel(&prepared, &self.bound, &self.template);
        let run = |shard: &mut RackShard| {
            let whole = shard.whole();
            for _ in 0..steps {
                kernel
                    .step_racks(&mut shard.temps, &shard.powers, &whole)
                    .expect("step succeeds");
            }
        };
        let single = self.shards.len() == 1;
        std::thread::scope(|scope| {
            for shard in &mut self.shards {
                if single {
                    run(shard);
                } else {
                    let run = &run;
                    scope.spawn(move || run(shard));
                }
            }
        });
    }

    /// The hottest lane temperature (consume the result so benchmark
    /// loops are not optimized away).
    #[must_use]
    pub fn max_temperature(&self) -> leakctl_units::Celsius {
        let hottest = self
            .shards
            .iter()
            .map(|shard| shard.temps.max_temperature())
            .fold(f64::NEG_INFINITY, f64::max);
        leakctl_units::Celsius::new(hottest)
    }
}

/// One [`RackKernel`] shard: a contiguous lane range with its packed
/// temperatures and its lanes' power injections
/// (`[slot * width + lane]`).
#[derive(Debug)]
struct RackShard {
    lanes: std::ops::Range<usize>,
    temps: leakctl_thermal::PackedLanes,
    powers: Vec<f64>,
}

impl RackShard {
    /// The shard's lanes as one rack.
    fn whole(&self) -> [leakctl_thermal::RackSpan; 1] {
        [leakctl_thermal::RackSpan {
            lanes: 0..self.lanes.len(),
            rack: 0,
        }]
    }
}

/// A full machine room (fleets coupled through the CRAH/plenum/aisle
/// air network) at the canonical operating point — the kernel behind
/// the `repro-room` servers-stepped/sec report and the `room_scale`
/// criterion group. Construction matches [`RoomConfig`]'s defaults
/// (two CRAH units, 18 °C supply, 10 % recirculation) with all fans
/// pinned so throughput runs compare like for like.
///
/// [`RoomConfig`]: leakctl::room::RoomConfig
#[derive(Debug)]
pub struct RoomKernel {
    room: leakctl::room::Room,
}

impl RoomKernel {
    /// Builds a `rows × racks_per_row` room of `servers_per_rack`
    /// default servers, seeded with [`REPRO_SEED`].
    ///
    /// # Panics
    ///
    /// Panics when construction fails (static configuration, known to
    /// build).
    #[must_use]
    pub fn new(rows: usize, racks_per_row: usize, servers_per_rack: usize) -> Self {
        use leakctl::control::ControlAction;
        use leakctl_units::Rpm;
        let mut config = leakctl::room::RoomConfig::new(rows, racks_per_row, servers_per_rack);
        config.seed = REPRO_SEED;
        let mut room = leakctl::room::Room::new(config).expect("room builds");
        room.apply(&ControlAction::hold().with_fan_floor(Rpm::new(3000.0)))
            .expect("fan floor applies");
        Self { room }
    }

    /// Total server count.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.room.servers()
    }

    /// Resets the room's energy accounting (after a warm-up, so
    /// reported energies cover exactly the measured steps).
    pub fn reset_accounting(&mut self) {
        self.room.reset_accounting();
    }

    /// Advances the room by `steps` one-second full-load steps.
    ///
    /// # Panics
    ///
    /// Panics when a step fails (the canonical room is regular).
    pub fn step(&mut self, steps: u64) {
        use leakctl_units::{SimDuration, Utilization};
        for _ in 0..steps {
            self.room
                .step(SimDuration::from_secs(1), Utilization::FULL)
                .expect("room step succeeds");
        }
    }

    /// The simulated room (for metric extraction after a run).
    #[must_use]
    pub fn room(&self) -> &leakctl::room::Room {
        &self.room
    }
}

/// The room *air network alone* (no server fleets) with per-step
/// wobbling rack powers — isolates the sparse air-volume solve the
/// CSR backend carries at room scale. At 64+ racks the network crosses
/// the CSR threshold.
#[derive(Debug)]
pub struct RoomAirKernel {
    air: leakctl_thermal::RoomAirModel,
    tick: u64,
}

impl RoomAirKernel {
    /// Builds a `racks`-rack air model (18 °C supply, 15 %
    /// recirculation, ~12 kW racks).
    ///
    /// # Panics
    ///
    /// Panics when construction fails (static spec, known to build).
    #[must_use]
    pub fn new(racks: usize) -> Self {
        use leakctl_thermal::{RoomAirModel, RoomAirSpec};
        use leakctl_units::{AirFlow, Celsius, Watts};
        let spec = RoomAirSpec::uniform(
            racks,
            Celsius::new(18.0),
            AirFlow::new(3.0 * racks as f64),
            0.15,
        );
        let mut air = RoomAirModel::new(spec).expect("air model builds");
        for r in 0..racks {
            air.set_rack_power(r, Watts::new(12_000.0)).expect("power");
        }
        Self { air, tick: 0 }
    }

    /// `true` when the model runs on the CSR backend.
    #[must_use]
    pub fn is_sparse(&self) -> bool {
        self.air.is_sparse()
    }

    /// Advances the air network by `steps` one-second steps, wobbling
    /// every rack's power each step (as live fleets do), so source
    /// refresh is part of the measurement.
    ///
    /// # Panics
    ///
    /// Panics when a step fails (the kernel network is regular).
    pub fn step(&mut self, steps: u64) {
        use leakctl_units::{SimDuration, Watts};
        let dt = SimDuration::from_secs(1);
        for _ in 0..steps {
            self.tick += 1;
            for r in 0..self.air.racks() {
                let wobble = f64::from(
                    (self.tick as u32)
                        .wrapping_mul(7)
                        .wrapping_add(r as u32 * 13)
                        & 127,
                );
                self.air
                    .set_rack_power(r, Watts::new(12_000.0 + 4.0 * wobble))
                    .expect("power");
            }
            self.air.step(dt).expect("air step succeeds");
        }
    }

    /// The hottest air-volume temperature (consume the result so
    /// benchmark loops are not optimized away).
    #[must_use]
    pub fn max_temperature(&self) -> leakctl_units::Celsius {
        self.air.state().max_temperature()
    }
}

/// Machine-readable perf reporting shared by the `repro-*` gate
/// binaries: one JSON schema (`leakctl-perf/v1`), rendered by hand so
/// the vendored no-op serde shim suffices, a merge helper so several
/// binaries can contribute to one `BENCH_perf.json` artifact, and the
/// gates' shared command line and `main` ([`perf::gate_main`]).
pub mod perf {
    use std::fmt::Write as _;

    /// One timed measurement destined for the JSON report.
    #[derive(Debug, Clone)]
    pub struct PerfResult {
        /// Stable measurement name (the differ keys on it).
        pub name: &'static str,
        /// Simulated steps executed.
        pub steps: u64,
        /// Wall-clock seconds.
        pub wall_s: f64,
        /// Extra key/value pairs (pre-rendered JSON values).
        pub extra: Vec<(&'static str, String)>,
    }

    impl PerfResult {
        /// Steps per wall-clock second.
        #[must_use]
        pub fn steps_per_sec(&self) -> f64 {
            self.steps as f64 / self.wall_s.max(1e-12)
        }
    }

    /// The least wall time a fast row times: it repeats its run until
    /// this much has been measured, so a scheduler hiccup of a few
    /// milliseconds cannot swing its rate.
    pub const MIN_TIMED_S: f64 = 0.2;

    /// Repeats `round` — which returns the seconds it timed and its
    /// result — until at least [`MIN_TIMED_S`] has been timed. Returns
    /// the rounds run, the seconds timed and the last round's result.
    pub fn timed_rounds<T>(mut round: impl FnMut() -> (f64, T)) -> (u64, f64, T) {
        let (mut wall_s, mut last) = round();
        let mut rounds = 1;
        while wall_s < MIN_TIMED_S {
            let (s, result) = round();
            wall_s += s;
            last = result;
            rounds += 1;
        }
        (rounds, wall_s, last)
    }

    /// Runs a measurement `reps` times and keeps the fastest —
    /// wall-clock minima are far more stable than single shots on a
    /// shared machine.
    pub fn best_of(reps: u32, mut f: impl FnMut() -> PerfResult) -> PerfResult {
        let mut best = f();
        for _ in 1..reps {
            let r = f();
            if r.wall_s < best.wall_s {
                best = r;
            }
        }
        best
    }

    /// Renders a full `leakctl-perf/v1` document.
    #[must_use]
    pub fn render_json(results: &[PerfResult], quick: bool) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"leakctl-perf/v1\",");
        let _ = writeln!(out, "  \"quick\": {quick},");
        out.push_str("  \"results\": [\n");
        for (i, r) in results.iter().enumerate() {
            out.push_str(&render_result(r));
            out.push_str(if i + 1 == results.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    fn render_result(r: &PerfResult) -> String {
        let mut out = String::from("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(out, "      \"sim_steps\": {},", r.steps);
        let _ = writeln!(out, "      \"wall_s\": {:.6},", r.wall_s);
        let _ = writeln!(out, "      \"steps_per_sec\": {:.1},", r.steps_per_sec());
        for (k, v) in &r.extra {
            let _ = writeln!(out, "      \"{k}\": {v},");
        }
        // Trailing-comma cleanup: drop the final ",\n" and re-terminate.
        out.truncate(out.len() - 2);
        out.push('\n');
        out
    }

    /// Merges `results` into an existing `leakctl-perf/v1` document
    /// (e.g. `repro-rack` merging into the report `repro-perf` wrote):
    /// entries whose name matches an incoming result are *replaced*, so
    /// re-running a reporter against a file that already carries its
    /// measurements never duplicates them (duplicates would make the
    /// regression differ compare against the stale first copy). The
    /// document's `"quick"` flag becomes the OR of the existing flag
    /// and `quick`, so a quick-mode contribution is never mislabelled
    /// as full-fidelity. Returns `None` when `existing` is not
    /// recognizably that schema — callers should then write a fresh
    /// document instead.
    #[must_use]
    pub fn merge_into_json(existing: &str, results: &[PerfResult], quick: bool) -> Option<String> {
        if !existing.contains("\"schema\": \"leakctl-perf/v1\"") {
            return None;
        }
        let tail = "  ]\n}\n";
        let body = existing.strip_suffix(tail)?;
        let (header, entries_text) = body.split_at(body.find("  \"results\": [\n")? + 15);
        let header = if quick {
            header.replace("  \"quick\": false,", "  \"quick\": true,")
        } else {
            header.to_owned()
        };
        // Split the existing entries into per-result blocks (the format
        // is our own renderer's: each entry closes with a `    }` or
        // `    },` line).
        let mut kept: Vec<String> = Vec::new();
        let mut current = String::new();
        for line in entries_text.lines() {
            if line == "    }" || line == "    }," {
                kept.push(std::mem::take(&mut current));
            } else {
                current.push_str(line);
                current.push('\n');
            }
        }
        if !current.trim().is_empty() {
            return None; // trailing garbage: not our renderer's output
        }
        let replaced: Vec<String> = results
            .iter()
            .map(|r| format!("\"name\": \"{}\",", r.name))
            .collect();
        kept.retain(|block| !replaced.iter().any(|tag| block.contains(tag.as_str())));
        kept.extend(results.iter().map(render_result));
        let mut out = String::with_capacity(existing.len() + 256);
        out.push_str(&header);
        for (i, block) in kept.iter().enumerate() {
            out.push_str(block);
            out.push_str(if i + 1 == kept.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str(tail);
        Some(out)
    }

    /// A gate binary's command line: `[--quick] [--out PATH]`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct GateArgs {
        /// Run the reduced-size scenario.
        pub quick: bool,
        /// Report path; without one the run writes no report.
        pub out: Option<String>,
    }

    impl GateArgs {
        /// Parses the arguments after the program name.
        ///
        /// # Errors
        ///
        /// Returns a message naming the first unknown argument, or an
        /// `--out` without a path.
        pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
            let mut parsed = Self {
                quick: false,
                out: None,
            };
            let mut args = args.into_iter();
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--quick" => parsed.quick = true,
                    "--out" => match args.next() {
                        Some(path) if !path.starts_with("--") => parsed.out = Some(path),
                        _ => return Err("--out needs a path".to_owned()),
                    },
                    _ => return Err(format!("unknown argument `{arg}`")),
                }
            }
            Ok(parsed)
        }

        /// Parses this process's arguments; on a bad command line,
        /// prints the problem and a usage line for `bin` and exits 2.
        #[must_use]
        pub fn from_env(bin: &str) -> Self {
            Self::parse(std::env::args().skip(1)).unwrap_or_else(|problem| {
                eprintln!("{bin}: {problem}\nusage: {bin} [--quick] [--out PATH]");
                std::process::exit(2)
            })
        }
    }

    /// What a gate binary's run produced.
    #[derive(Debug)]
    pub struct GateRun {
        /// Measurements merged into the report.
        pub results: Vec<PerfResult>,
        /// `(held, failure message)` for each check, in order.
        pub checks: Vec<(bool, &'static str)>,
        /// Printed when every check held (`None`: report only).
        pub pass: Option<&'static str>,
    }

    /// The shared `main` of the gate binaries: parses `--quick` and
    /// `--out PATH` (exit 2 on a bad command line), runs `gate` with
    /// the quick flag, merges its results into the report at the out
    /// path when one was given (a fresh report when none is there),
    /// then exits 1 after printing every failed check, or prints the
    /// pass line.
    pub fn gate_main(bin: &str, gate: impl FnOnce(bool) -> GateRun) {
        let args = GateArgs::from_env(bin);
        let run = gate(args.quick);
        if let Some(out) = &args.out {
            let json = std::fs::read_to_string(out)
                .ok()
                .and_then(|existing| merge_into_json(&existing, &run.results, args.quick))
                .unwrap_or_else(|| render_json(&run.results, args.quick));
            std::fs::write(out, &json).expect("perf JSON written");
            println!("wrote {out}");
        }
        let mut failed = false;
        for (_, message) in run.checks.iter().filter(|(held, _)| !held) {
            eprintln!("FAIL: {message}");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        if let Some(pass) = run.pass {
            println!("PASS: {pass}");
        }
    }

    /// Outcome of comparing two perf reports.
    #[derive(Debug)]
    pub struct DiffReport {
        /// One human-readable line per measurement.
        pub lines: Vec<String>,
        /// `true` when a shared measurement lost more than the
        /// threshold, or a measurement of the old report is missing
        /// from the new one. A measurement only in the new report is
        /// listed and passes, so adding a measurement does not require
        /// seeding history.
        pub failed: bool,
    }

    /// Compares `(name, steps_per_sec)` lists by name with an allowed
    /// fractional loss of `threshold` — the policy behind the
    /// `repro-perf-diff` CI gate. A name in `old` but missing from
    /// `new` fails the gate (a dropped measurement would otherwise hide
    /// its regression); a name only in `new` is listed and passes.
    #[must_use]
    pub fn diff_reports(
        old: &[(String, f64)],
        new: &[(String, f64)],
        threshold: f64,
    ) -> DiffReport {
        let mut lines = Vec::new();
        let mut failed = false;
        for (name, new_sps) in new {
            match old.iter().find(|(n, _)| n == name) {
                Some((_, old_sps)) => {
                    let ratio = new_sps / old_sps.max(1e-12);
                    let verdict = if ratio < 1.0 - threshold {
                        failed = true;
                        "REGRESSION"
                    } else if ratio > 1.0 + threshold {
                        "improved"
                    } else {
                        "ok"
                    };
                    lines.push(format!(
                        "{name:<28} {old_sps:>14.0} -> {new_sps:>14.0} steps/s ({:+6.1}%)  {verdict}",
                        (ratio - 1.0) * 100.0
                    ));
                }
                None => lines.push(format!(
                    "{name:<28} {:>14} -> {new_sps:>14.0} steps/s (new)",
                    "-"
                )),
            }
        }
        for (name, _) in old {
            if !new.iter().any(|(n, _)| n == name) {
                failed = true;
                lines.push(format!("{name:<28} dropped from report  MISSING"));
            }
        }
        DiffReport { lines, failed }
    }

    /// Parses the `(name, steps_per_sec)` pairs out of a
    /// `leakctl-perf/v1` document (line-oriented; the format is our
    /// own renderer's). Used by the `repro-perf-diff` regression gate.
    #[must_use]
    pub fn parse_steps_per_sec(doc: &str) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        let mut current: Option<String> = None;
        for line in doc.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("\"name\": \"") {
                current = rest.strip_suffix("\",").map(str::to_owned);
            } else if let Some(rest) = line.strip_prefix("\"steps_per_sec\": ") {
                let value = rest.trim_end_matches(',');
                if let (Some(name), Ok(v)) = (current.take(), value.parse::<f64>()) {
                    out.push((name, v));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pipeline_runs_end_to_end() {
        let p = quick_pipeline(7);
        assert!(p.data.points.len() >= 12);
        assert!(p.fitted.k1 > 0.0);
        assert!(p.lut.len() >= 4);
    }

    #[test]
    fn stepping_kernel_paths_agree() {
        let mut cached = SteppingKernel::new();
        let mut stateless = SteppingKernel::new();
        cached.step_cached(50);
        stateless.step_stateless(50);
        let a = cached.max_temperature().degrees();
        let b = stateless.max_temperature().degrees();
        assert!((a - b).abs() < 1e-12, "cached {a} vs stateless {b}");
    }

    #[test]
    fn rack_kernel_lanes_share_structure_and_warm_up() {
        let mut kernel = RackKernel::new(4, 1);
        assert_eq!(kernel.servers(), 4);
        kernel.step_batched(120);
        let max = kernel.max_temperature().degrees();
        assert!(
            (30.0..100.0).contains(&max),
            "dies should warm from 24 °C under ~80 W, got {max}"
        );
    }

    #[test]
    fn room_network_is_sparse_scale() {
        let (net, dies, _) = room_network(70);
        assert_eq!(dies.len(), 70);
        assert_eq!(net.state_count(), 3 * 70 + 1);
        // Above the CSR threshold: the auto backend goes sparse.
        let solver = leakctl_thermal::TransientSolver::new(&net);
        assert!(solver.is_sparse());
    }

    #[test]
    fn sharded_kernel_bit_identical_to_packed_kernel() {
        let mut packed = RackKernel::new(36, 1);
        packed.step_batched(200);
        for threads in [1usize, 4] {
            let mut sharded = RackKernel::new(36, threads);
            sharded.step_many(200);
            assert_eq!(
                sharded.max_temperature().degrees().to_bits(),
                packed.max_temperature().degrees().to_bits(),
                "threads {threads}"
            );
            // Stepped one prepare per step, the shards agree too.
            let mut stepped = RackKernel::new(36, threads);
            stepped.step_batched(200);
            assert_eq!(
                stepped.max_temperature().degrees().to_bits(),
                packed.max_temperature().degrees().to_bits(),
                "threads {threads}, stepwise"
            );
        }
    }

    #[test]
    fn room_kernel_steps_and_accounts() {
        let mut kernel = RoomKernel::new(1, 2, 2);
        assert_eq!(kernel.servers(), 4);
        kernel.step(180);
        assert!(kernel.room().max_die_temperature().degrees() > 30.0);
        assert!(kernel.room().cooling_energy().value() > 0.0);
        assert!(kernel.room().total_energy() > kernel.room().it_energy());
    }

    #[test]
    fn room_air_kernel_goes_sparse_at_scale() {
        let mut large = RoomAirKernel::new(64);
        assert!(large.is_sparse(), "130 air nodes must pick CSR");
        large.step(120);
        assert!(large.max_temperature().degrees() > 18.0);
        assert!(!RoomAirKernel::new(8).is_sparse(), "small rooms stay dense");
    }

    #[test]
    fn perf_diff_fails_dropped_names_and_tolerates_added_ones() {
        use perf::diff_reports;
        let old = vec![("alpha".to_owned(), 1000.0), ("beta".to_owned(), 5.0)];
        let new = vec![
            ("alpha".to_owned(), 900.0),
            ("beta".to_owned(), 5.0),
            ("brand_new_measurement".to_owned(), 123.0),
        ];
        let report = diff_reports(&old, &new, 0.20);
        assert!(!report.failed, "10% loss and a new name must pass");
        assert!(report.lines.iter().any(|l| l.contains("(new)")));
        // A measurement missing from the new report fails the gate.
        let dropped = diff_reports(&old, &new[..1], 0.20);
        assert!(dropped.failed, "a dropped name must fail");
        assert!(dropped
            .lines
            .iter()
            .any(|l| l.starts_with("beta") && l.contains("MISSING")));
        // A real regression on a shared name still fails.
        let bad = vec![("alpha".to_owned(), 500.0), ("beta".to_owned(), 5.0)];
        assert!(diff_reports(&old, &bad, 0.20).failed);
    }

    #[test]
    fn gate_args_parse_flags_and_reject_bad_command_lines() {
        use perf::GateArgs;
        let parse = |args: &[&str]| GateArgs::parse(args.iter().map(|a| (*a).to_owned()));
        assert_eq!(
            parse(&[]),
            Ok(GateArgs {
                quick: false,
                out: None
            })
        );
        assert_eq!(
            parse(&["--out", "x.json", "--quick"]),
            Ok(GateArgs {
                quick: true,
                out: Some("x.json".to_owned())
            })
        );
        // `--out` with no path is an error, not the default path.
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--out", "--quick"]).is_err());
        // Unknown or mistyped flags are rejected, not ignored.
        for bad in [
            &["--quik"][..],
            &["-q"],
            &["extra.json"],
            &["--quick", "--help"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("unknown argument"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn perf_report_merge_and_parse_round_trip() {
        use perf::{merge_into_json, parse_steps_per_sec, render_json, PerfResult};
        let a = PerfResult {
            name: "alpha",
            steps: 100,
            wall_s: 0.5,
            extra: vec![("note", "1.0".to_owned())],
        };
        let b = PerfResult {
            name: "beta",
            steps: 300,
            wall_s: 0.1,
            extra: vec![],
        };
        let doc = render_json(std::slice::from_ref(&a), false);
        let merged = merge_into_json(&doc, &[b], false).expect("merge succeeds");
        let parsed = parse_steps_per_sec(&merged);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "alpha");
        assert!((parsed[0].1 - 200.0).abs() < 0.2);
        assert_eq!(parsed[1].0, "beta");
        assert!((parsed[1].1 - 3000.0).abs() < 0.2);
        assert!(merged.contains("\"quick\": false"));
        // Re-merging a same-name result replaces it instead of
        // duplicating (reruns must not grow the file or leave stale
        // first copies for the differ).
        let faster_beta = PerfResult {
            name: "beta",
            steps: 300,
            wall_s: 0.05,
            extra: vec![],
        };
        let remerged = merge_into_json(&merged, &[faster_beta], true).expect("remerge succeeds");
        let reparsed = parse_steps_per_sec(&remerged);
        assert_eq!(reparsed.len(), 2, "no duplicate entries");
        assert_eq!(reparsed[1].0, "beta");
        assert!((reparsed[1].1 - 6000.0).abs() < 0.4);
        // A quick contribution flips the document flag.
        assert!(remerged.contains("\"quick\": true"));
        assert!(merge_into_json("not a perf report", &[a], false).is_none());
    }
}
