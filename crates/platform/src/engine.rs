//! The server's stepping core: physics, power models and accounting,
//! with no telemetry or tracing attached.
//!
//! [`ServerCore`] is everything [`Server`](crate::Server) needs to
//! advance the machine state. It splits in two:
//!
//! - a [`Dynamics`] record — fans, failsafe, clock, applied activity,
//!   energy/peak accounting and the DIMM/board/PSU power parameters —
//!   a plain `Copy` value with no heap pointers;
//! - the CPU socket models, the thermal RC network with its cached
//!   stepper, and the node handles that tie the two together.
//!
//! A step runs in three phases:
//!
//! 1. [`ServerCore::begin_step`] applies fan dynamics, the thermal
//!    failsafe and component powers, and accounts energy;
//! 2. [`ServerCore::integrate`] integrates the thermal network in place;
//! 3. [`ServerCore::finish_step`] advances the simulation clock.
//!
//! Each formula of phases 1 and 3 is a [`Dynamics`] method (or a
//! [`CpuSocket`] one), and both [`ServerCore`] and the fleet's resident
//! lanes ([`DynamicsLanes`](crate::DynamicsLanes), which keep one
//! record per server in contiguous storage and solve over packed
//! temperatures through a shared
//! [`BatchSolver`](leakctl_thermal::BatchSolver)) call the same
//! methods, so every path advances the physics identically.
//! [`Server`](crate::Server) runs the three phases and adds CSTH polling
//! and event tracing on top.

use leakctl_power::PsuModel;
use leakctl_sim::Clock;
use leakctl_thermal::{
    ConvectionModel, Coupling, NodeId, ThermalNetwork, ThermalNetworkBuilder, ThermalState,
    TransientSolver,
};
use leakctl_units::{
    AirFlow, Celsius, Joules, Rpm, SimDuration, SimInstant, ThermalConductance, Utilization, Watts,
};

use crate::config::ServerConfig;
use crate::cpu::CpuSocket;
use crate::dimm::DimmBank;
use crate::error::PlatformError;
use crate::fans::{FanBank, FanFault};
use crate::service_processor::{ServiceProcessor, SpAction};

/// Thermal-network handles for one socket.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SocketNodes {
    pub(crate) die: NodeId,
    pub(crate) sink: NodeId,
    pub(crate) air: NodeId,
}

/// Service-processor activity observed during a step, for the caller to
/// trace (the core itself records nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpTransition {
    /// No failsafe state change.
    None,
    /// The failsafe tripped and forced maximum cooling.
    ForcedMaxCooling,
    /// The failsafe released back to external control.
    Released,
}

/// One server's per-step dynamics state: the fan bank with its
/// supplies, the service-processor failsafe, the clock, the applied
/// activity, energy/peak accounting, and the non-socket power
/// parameters (DIMM banks, board, PSU).
///
/// A plain `Copy` record with no heap pointers. [`ServerCore`] embeds
/// one, and a fleet keeps one per resident server in contiguous
/// storage; both step it through the same methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dynamics {
    pub(crate) fans: FanBank,
    pub(crate) sp: ServiceProcessor,
    pub(crate) dimm_banks: [DimmBank; 2],
    pub(crate) board_power: Watts,
    pub(crate) psu: PsuModel,
    pub(crate) max_rpm: Rpm,
    pub(crate) clock: Clock,
    pub(crate) last_activity: Utilization,
    pub(crate) system_energy: Joules,
    pub(crate) fan_energy: Joules,
    pub(crate) peak_power: Watts,
    pub(crate) accounted: SimDuration,
}

impl Dynamics {
    fn new(config: &ServerConfig) -> Self {
        let dimms_per_bank = config.dimm_count / 2;
        let dimm_slope_per_bank = config.dimm_dynamic_slope() / 2.0;
        let bank = |b| {
            DimmBank::new(
                b,
                dimms_per_bank,
                config.dimm_idle_each,
                dimm_slope_per_bank,
            )
        };
        Self {
            fans: FanBank::new(
                config.fans,
                config.default_rpm,
                config.fan_slew_rpm_per_s,
                SimDuration::from_millis(config.supply_latency_ms),
                config.min_rpm,
                config.max_rpm,
            ),
            sp: ServiceProcessor::new(
                config.critical_temp,
                config.failsafe_release_temp,
                config.max_rpm,
            ),
            dimm_banks: [bank(0), bank(1)],
            board_power: config.board_power,
            psu: config.psu,
            max_rpm: config.max_rpm,
            clock: Clock::new(),
            last_activity: Utilization::IDLE,
            system_energy: Joules::ZERO,
            fan_energy: Joules::ZERO,
            peak_power: Watts::ZERO,
            accounted: SimDuration::ZERO,
        }
    }

    /// The simulation clock.
    #[must_use]
    pub fn now(&self) -> SimInstant {
        self.clock.now()
    }

    /// Accumulated system + fan energy.
    #[must_use]
    pub fn total_energy(&self) -> Joules {
        self.system_energy + self.fan_energy
    }

    /// Accumulated fan energy.
    #[must_use]
    pub fn fan_energy(&self) -> Joules {
        self.fan_energy
    }

    /// Accumulated system (wall) energy.
    #[must_use]
    pub fn system_energy(&self) -> Joules {
        self.system_energy
    }

    /// Highest instantaneous total power observed.
    #[must_use]
    pub fn peak_power(&self) -> Watts {
        self.peak_power
    }

    /// Time over which energy has been accumulated.
    #[must_use]
    pub fn accounted_time(&self) -> SimDuration {
        self.accounted
    }

    /// Fan power drawn right now.
    #[must_use]
    pub fn fan_power(&self) -> Watts {
        self.fans.power()
    }

    /// Mean actual fan speed.
    #[must_use]
    pub fn actual_rpm(&self) -> Rpm {
        self.fans.mean_rpm()
    }

    /// Last applied fan command.
    #[must_use]
    pub fn commanded_rpm(&self) -> Rpm {
        self.fans.commanded()
    }

    /// Number of accepted fan speed changes.
    #[must_use]
    pub fn fan_speed_changes(&self) -> u64 {
        self.fans.speed_changes()
    }

    /// How many times the thermal failsafe tripped.
    #[must_use]
    pub fn failsafe_activations(&self) -> u32 {
        self.sp.activations()
    }

    /// The activity level applied in the most recent step.
    #[must_use]
    pub fn current_activity(&self) -> Utilization {
        self.last_activity
    }

    /// The fan bank's currently injected fault.
    #[must_use]
    pub fn fan_fault(&self) -> FanFault {
        self.fans.fault()
    }

    /// Commands all fan pairs to `rpm` at the current instant. Returns
    /// `false` (and commands nothing) while the failsafe is engaged.
    pub fn command_fan_speed(&mut self, rpm: Rpm) -> bool {
        if self.sp.is_engaged() {
            return false;
        }
        self.fans.command_all(self.clock.now(), rpm);
        true
    }

    /// Resets energy, peak-power and timing accumulators.
    pub fn reset_accounting(&mut self) {
        self.system_energy = Joules::ZERO;
        self.fan_energy = Joules::ZERO;
        self.peak_power = Watts::ZERO;
        self.accounted = SimDuration::ZERO;
    }

    /// Start of a step of `dt` at `activity`: the supplies apply due
    /// commands and the fans slew over the step. Returns the chassis
    /// flow the fans deliver during the step.
    pub(crate) fn advance_fans(&mut self, dt: SimDuration, activity: Utilization) -> AirFlow {
        let end = self.clock.now() + dt;
        self.last_activity = activity;
        self.fans.advance(end, dt);
        self.fans.flow()
    }

    /// The thermal failsafe on the start-of-step hottest die; a trip
    /// commands maximum cooling at the current instant.
    pub(crate) fn failsafe(&mut self, max_die: Celsius) -> SpTransition {
        match self.sp.check(max_die) {
            SpAction::ForceMaxCooling => {
                self.fans.command_all(self.clock.now(), self.max_rpm);
                SpTransition::ForcedMaxCooling
            }
            SpAction::Release => SpTransition::Released,
            SpAction::None => SpTransition::None,
        }
    }

    /// Each DIMM bank's power at the applied activity.
    pub(crate) fn dimm_powers(&self) -> [Watts; 2] {
        self.dimm_banks.map(|b| b.power(self.last_activity))
    }

    /// DC power of all system components, given the CPU sockets' total.
    pub(crate) fn dc_power(&self, cpu: Watts) -> Watts {
        let dimm: Watts = self.dimm_powers().into_iter().sum();
        cpu + dimm + self.board_power
    }

    /// Wall power of the system side plus fan power, given the CPU
    /// sockets' total.
    pub(crate) fn total_power(&self, cpu: Watts) -> Watts {
        self.total_power_with_fans(cpu, self.fans.power())
    }

    /// [`Self::total_power`] with the fan power already evaluated at
    /// the current fan speeds (`fans` = [`FanBank::power`]).
    pub(crate) fn total_power_with_fans(&self, cpu: Watts, fans: Watts) -> Watts {
        self.psu.input_power(self.dc_power(cpu)) + fans
    }

    /// Energy and peak accounting over a step of `dt`, with the
    /// start-of-step CPU power. Returns the fan power it accounted: the
    /// fans hold their speeds until the next step's
    /// [`Self::advance_fans`], so that is also the end-of-step fan
    /// power.
    pub(crate) fn account(&mut self, dt: SimDuration, cpu: Watts) -> Watts {
        let wall = self.psu.input_power(self.dc_power(cpu));
        let fan_p = self.fans.power();
        self.system_energy += wall * dt;
        self.fan_energy += fan_p * dt;
        self.peak_power = self.peak_power.max(wall + fan_p);
        self.accounted += dt;
        fan_p
    }

    /// End of a step: advances the clock by `dt`.
    pub(crate) fn finish(&mut self, dt: SimDuration) {
        let end = self.clock.now() + dt;
        self.clock.advance_to(end).expect("time moves forward");
    }
}

/// The digital-twin server minus telemetry: components, thermal model,
/// failsafe, clock and accounting.
///
/// Use it directly for headless fleet simulation (no sensor noise, no
/// CSTH history), or through [`Server`](crate::Server) for the full
/// telemetry-observed machine. See the module docs for the
/// begin/integrate/finish phase protocol.
#[derive(Debug, Clone)]
pub struct ServerCore {
    pub(crate) config: ServerConfig,
    /// Fans, failsafe, clock, accounting and the non-socket power
    /// parameters.
    pub(crate) dynamics: Dynamics,
    pub(crate) sockets: Vec<CpuSocket>,
    // Thermal model.
    pub(crate) net: ThermalNetwork,
    pub(crate) state: ThermalState,
    /// Cached stepping engine: reuses assembly and the `(C + h·G)`
    /// factorization across the (very common) constant-flow,
    /// constant-dt stretches of a run.
    pub(crate) stepper: TransientSolver,
    pub(crate) socket_nodes: Vec<SocketNodes>,
    pub(crate) dimm_nodes: [NodeId; 2],
    pub(crate) air_dimm: NodeId,
    pub(crate) ambient_node: NodeId,
    pub(crate) chassis_flow: leakctl_thermal::FlowChannelId,
}

impl ServerCore {
    /// Builds the stepping core from `config`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::Config`] for inconsistent configuration
    /// or a thermal-construction failure.
    pub fn new(config: ServerConfig) -> Result<Self, PlatformError> {
        config.validate()?;

        // ---- components ------------------------------------------
        let cpu_slope = config.cpu_dynamic_slope_per_socket();
        let sockets: Vec<CpuSocket> = (0..config.sockets)
            .map(|s| {
                CpuSocket::new(
                    s,
                    config.cores_per_socket,
                    config.cpu_idle_per_socket,
                    cpu_slope,
                    config.cpu_const_leak_per_socket.value(),
                    config.cpu_leak_ref_per_socket.value(),
                    config.process_sigma[s],
                    config.core_voltage,
                )
            })
            .collect();
        let dynamics = Dynamics::new(&config);

        // ---- thermal network --------------------------------------
        let mut b = ThermalNetworkBuilder::new();
        let ambient = b.add_boundary("ambient", config.ambient);
        let chassis_flow = b.add_flow_channel("chassis");
        let q_ref = config.fans.flow(config.max_rpm);
        let sink_conv = ConvectionModel::new(
            config.sink_conv_g_ref,
            q_ref,
            config.sink_conv_exponent,
            config.sink_conv_g_min,
        );
        let dimm_conv = ConvectionModel::new(
            config.dimm_conv_g_ref,
            q_ref,
            config.sink_conv_exponent,
            config.sink_conv_g_min,
        );

        let air_dimm = b.add_node("air_dimm", config.air_capacitance);
        b.connect_directed(
            ambient,
            air_dimm,
            Coupling::Advective {
                channel: chassis_flow,
                fraction: 1.0,
            },
        )?;
        // Natural-convection leak so the network stays solvable at zero
        // flow.
        b.connect(
            air_dimm,
            ambient,
            Coupling::Conductance(ThermalConductance::new(0.5)),
        )?;

        let mut dimm_bank = |bank: usize| {
            let node = b.add_node(&format!("dimm_bank{bank}"), config.dimm_bank_capacitance);
            b.connect(
                node,
                air_dimm,
                Coupling::Convective {
                    channel: chassis_flow,
                    model: dimm_conv,
                },
            )
            .map(|()| node)
        };
        let dimm_nodes = [dimm_bank(0)?, dimm_bank(1)?];

        let per_socket_fraction = 1.0 / config.sockets as f64;
        let mut socket_nodes = Vec::new();
        for s in 0..config.sockets {
            let die = b.add_node(&format!("cpu{s}_die"), config.die_capacitance);
            let sink = b.add_node(&format!("cpu{s}_sink"), config.sink_capacitance);
            let air = b.add_node(&format!("cpu{s}_air"), config.air_capacitance);
            b.connect(
                die,
                sink,
                Coupling::Conductance(config.die_sink_conductance),
            )?;
            b.connect(
                sink,
                air,
                Coupling::Convective {
                    channel: chassis_flow,
                    model: sink_conv,
                },
            )?;
            b.connect_directed(
                air_dimm,
                air,
                Coupling::Advective {
                    channel: chassis_flow,
                    fraction: per_socket_fraction,
                },
            )?;
            b.connect(
                air,
                ambient,
                Coupling::Conductance(ThermalConductance::new(0.5)),
            )?;
            socket_nodes.push(SocketNodes { die, sink, air });
        }
        let mut net = b.build()?;
        net.set_flow(chassis_flow, dynamics.fans.flow())?;
        let state = net.uniform_state(config.ambient);
        let stepper = TransientSolver::new(&net);

        Ok(Self {
            config,
            dynamics,
            sockets,
            net,
            state,
            stepper,
            socket_nodes,
            dimm_nodes,
            air_dimm,
            ambient_node: ambient,
            chassis_flow,
        })
    }

    // ---- observation ----------------------------------------------

    /// The simulation clock.
    #[must_use]
    pub fn now(&self) -> SimInstant {
        self.dynamics.now()
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The thermal network (read side) — e.g. for building a
    /// [`BatchSolver`](leakctl_thermal::BatchSolver) over a fleet of
    /// identically configured cores.
    #[must_use]
    pub fn thermal_network(&self) -> &ThermalNetwork {
        &self.net
    }

    /// Ground-truth die temperature of `socket`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::BadIndex`] for an out-of-range socket.
    pub fn die_temperature(&self, socket: usize) -> Result<Celsius, PlatformError> {
        let nodes = self
            .socket_nodes
            .get(socket)
            .ok_or(PlatformError::BadIndex {
                kind: "socket",
                index: socket,
            })?;
        Ok(self.net.temperature(&self.state, nodes.die))
    }

    /// Ground-truth heat-sink temperature of `socket`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::BadIndex`] for an out-of-range socket.
    pub fn sink_temperature(&self, socket: usize) -> Result<Celsius, PlatformError> {
        let nodes = self
            .socket_nodes
            .get(socket)
            .ok_or(PlatformError::BadIndex {
                kind: "socket",
                index: socket,
            })?;
        Ok(self.net.temperature(&self.state, nodes.sink))
    }

    /// Ground-truth local air temperature at `socket`'s heat sink.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::BadIndex`] for an out-of-range socket.
    pub fn air_temperature(&self, socket: usize) -> Result<Celsius, PlatformError> {
        let nodes = self
            .socket_nodes
            .get(socket)
            .ok_or(PlatformError::BadIndex {
                kind: "socket",
                index: socket,
            })?;
        Ok(self.net.temperature(&self.state, nodes.air))
    }

    /// Ground-truth hottest die temperature.
    #[must_use]
    pub fn max_die_temperature(&self) -> Celsius {
        self.socket_nodes
            .iter()
            .map(|n| self.net.temperature(&self.state, n.die))
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
    }

    /// Ground-truth wall (AC) power of the system side — everything
    /// behind the PSU; fans are powered externally.
    #[must_use]
    pub fn system_power(&self) -> Watts {
        self.dynamics.psu.input_power(self.dc_power())
    }

    /// Ground-truth DC power of all system components.
    #[must_use]
    pub fn dc_power(&self) -> Watts {
        self.dynamics.dc_power(self.cpu_power())
    }

    /// The CPU sockets' total power at the current die temperatures and
    /// applied activity.
    fn cpu_power(&self) -> Watts {
        let activity = self.dynamics.last_activity;
        self.sockets
            .iter()
            .zip(&self.socket_nodes)
            .map(|(s, n)| s.power(activity, self.net.temperature(&self.state, n.die)))
            .sum()
    }

    /// Ground-truth total CPU leakage right now (for analysis and for
    /// validating the leakage fit; controllers never see this).
    #[must_use]
    pub fn leakage_power(&self) -> Watts {
        self.sockets
            .iter()
            .zip(&self.socket_nodes)
            .map(|(s, n)| s.leakage_power(self.net.temperature(&self.state, n.die)))
            .sum()
    }

    /// Ground-truth fan power (drawn from the external supplies).
    #[must_use]
    pub fn fan_power(&self) -> Watts {
        self.dynamics.fan_power()
    }

    /// Ground-truth total power: system wall power plus fan power.
    #[must_use]
    pub fn total_power(&self) -> Watts {
        self.dynamics.total_power(self.cpu_power())
    }

    /// Accumulated system + fan energy since construction or the last
    /// [`ServerCore::reset_accounting`].
    #[must_use]
    pub fn total_energy(&self) -> Joules {
        self.dynamics.total_energy()
    }

    /// Accumulated fan energy.
    #[must_use]
    pub fn fan_energy(&self) -> Joules {
        self.dynamics.fan_energy()
    }

    /// Accumulated system (wall) energy.
    #[must_use]
    pub fn system_energy(&self) -> Joules {
        self.dynamics.system_energy()
    }

    /// Highest instantaneous total power observed.
    #[must_use]
    pub fn peak_power(&self) -> Watts {
        self.dynamics.peak_power()
    }

    /// Time over which energy has been accumulated.
    #[must_use]
    pub fn accounted_time(&self) -> SimDuration {
        self.dynamics.accounted_time()
    }

    /// Mean actual fan speed.
    #[must_use]
    pub fn actual_rpm(&self) -> Rpm {
        self.dynamics.actual_rpm()
    }

    /// Last applied fan command.
    #[must_use]
    pub fn commanded_rpm(&self) -> Rpm {
        self.dynamics.commanded_rpm()
    }

    /// Number of accepted fan speed changes.
    #[must_use]
    pub fn fan_speed_changes(&self) -> u64 {
        self.dynamics.fan_speed_changes()
    }

    /// How many times the thermal failsafe tripped.
    #[must_use]
    pub fn failsafe_activations(&self) -> u32 {
        self.dynamics.failsafe_activations()
    }

    /// The activity level applied in the most recent step.
    #[must_use]
    pub fn current_activity(&self) -> Utilization {
        self.dynamics.current_activity()
    }

    // ---- control ----------------------------------------------------

    /// Commands all fan pairs to `rpm` through the external supplies
    /// (applies after the configured command latency, then slews).
    /// Returns `false` when the thermal failsafe is engaged and the
    /// command was overridden (callers may want to trace that).
    pub fn command_fan_speed(&mut self, rpm: Rpm) -> bool {
        self.dynamics.command_fan_speed(rpm)
    }

    /// Injects (or clears, with [`FanFault::None`]) a fan-bank fault.
    /// The fault changes the delivered chassis flow, which the next
    /// step's [`begin_step`](Self::begin_step) re-derives and feeds
    /// into the thermal network — so cached factorizations invalidate
    /// through the ordinary flow-generation counters.
    ///
    /// # Panics
    ///
    /// Panics for a [`FanFault::Degraded`] flow scale outside `[0, 1]`.
    pub fn inject_fan_fault(&mut self, fault: FanFault) {
        self.dynamics.fans.inject_fault(fault);
    }

    /// The fan bank's currently injected fault.
    #[must_use]
    pub fn fan_fault(&self) -> FanFault {
        self.dynamics.fan_fault()
    }

    /// Re-pins the ambient (inlet) temperature — used for ambient-
    /// derating sweeps and rack scenarios where exhaust recirculation
    /// warms the inlet.
    ///
    /// # Errors
    ///
    /// Propagates thermal-network errors (never expected for the
    /// built-in ambient node).
    pub fn set_ambient(&mut self, ambient: Celsius) -> Result<(), PlatformError> {
        self.net.set_boundary(self.ambient_node, ambient)?;
        Ok(())
    }

    /// The current ambient (inlet) temperature.
    #[must_use]
    pub fn ambient(&self) -> Celsius {
        self.net.temperature(&self.state, self.ambient_node)
    }

    /// Resets energy, peak-power and timing accumulators (used between
    /// experiment phases).
    pub fn reset_accounting(&mut self) {
        self.dynamics.reset_accounting();
    }

    // ---- dynamics ---------------------------------------------------

    /// Phase 1 of a step: fan supplies apply due commands and fans
    /// slew, the thermal failsafe runs on ground-truth die temperature,
    /// component powers are evaluated at start-of-step temperatures and
    /// injected into the network, and energy/peak accounting runs.
    ///
    /// After this, call [`ServerCore::integrate`] and then
    /// [`ServerCore::finish_step`]. Every formula here is a
    /// [`Dynamics`] or [`CpuSocket`] method that
    /// [`DynamicsLanes::begin`](crate::DynamicsLanes::begin) calls too.
    ///
    /// # Errors
    ///
    /// Propagates thermal-network failures.
    pub fn begin_step(
        &mut self,
        dt: SimDuration,
        activity: Utilization,
    ) -> Result<SpTransition, PlatformError> {
        if dt.is_zero() {
            return Ok(SpTransition::None);
        }
        let flow = self.dynamics.advance_fans(dt, activity);
        self.net.set_flow(self.chassis_flow, flow)?;
        let transition = self.dynamics.failsafe(self.max_die_temperature());

        // Component powers from start-of-step temperatures. Each model
        // is evaluated once and reused for both the thermal injection
        // and the energy accounting (the leakage exponential is the
        // single most expensive power-model term).
        let mut cpu = Watts::ZERO;
        for (socket, nodes) in self.sockets.iter().zip(&self.socket_nodes) {
            let p = socket.power(activity, self.net.temperature(&self.state, nodes.die));
            cpu += p;
            self.net.set_power(nodes.die, p)?;
        }
        for (p, node) in self.dynamics.dimm_powers().into_iter().zip(self.dimm_nodes) {
            self.net.set_power(node, p)?;
        }
        self.net
            .set_power(self.air_dimm, self.dynamics.board_power)?;
        self.dynamics.account(dt, cpu);
        Ok(transition)
    }

    /// Phase 2 of a step: integrates the thermal network by `dt`
    /// through the core's cached stepper.
    ///
    /// # Errors
    ///
    /// Propagates thermal-solver failures.
    pub fn integrate(&mut self, dt: SimDuration) -> Result<(), PlatformError> {
        self.stepper.step(&self.net, &mut self.state, dt)?;
        Ok(())
    }

    /// The thermal state (read side) — e.g. for packing a fleet's
    /// states into batch storage.
    #[must_use]
    pub fn thermal_state(&self) -> &ThermalState {
        &self.state
    }

    /// Phase 3 of a step: advances the simulation clock by `dt`.
    pub fn finish_step(&mut self, dt: SimDuration) {
        if dt.is_zero() {
            return;
        }
        self.dynamics.finish(dt);
    }

    // ---- analysis helpers -------------------------------------------

    /// Predicts the steady-state die temperatures and system DC power
    /// for a hypothetical operating point, solving the
    /// leakage–temperature fixed point. Does not disturb the live
    /// state.
    ///
    /// # Errors
    ///
    /// Returns a thermal error when the network cannot be solved.
    pub fn steady_state_preview(
        &self,
        activity: Utilization,
        rpm: Rpm,
    ) -> Result<(Vec<Celsius>, Watts), PlatformError> {
        let mut net = self.net.clone();
        let rpm = rpm.clamp(self.config.min_rpm, self.config.max_rpm);
        net.set_flow(self.chassis_flow, self.config.fans.flow(rpm))?;
        for (bank, node) in self.dynamics.dimm_banks.iter().zip(self.dimm_nodes) {
            net.set_power(node, bank.power(activity))?;
        }
        net.set_power(self.air_dimm, self.config.board_power)?;

        let mut temps: Vec<Celsius> = vec![self.config.ambient; self.sockets.len()];
        let mut state = net.uniform_state(self.config.ambient);
        // One solver for the whole fixed-point loop: flows are constant
        // across iterations, so `G` is factored once and every
        // iteration is a single back-substitution.
        let mut solver = TransientSolver::new(&net);
        for _ in 0..60 {
            for (socket, nodes) in self.sockets.iter().zip(&self.socket_nodes) {
                let idx = socket.id();
                net.set_power(nodes.die, socket.power(activity, temps[idx]))?;
            }
            solver.steady_state_into(&net, &mut state)?;
            let new_temps: Vec<Celsius> = self
                .socket_nodes
                .iter()
                .map(|n| net.temperature(&state, n.die))
                .collect();
            // Leakage–temperature thermal runaway: the fixed point has
            // no finite solution at this operating point.
            if new_temps.iter().any(|t| !t.is_finite()) {
                return Err(PlatformError::Thermal(
                    leakctl_thermal::ThermalError::Diverged {
                        name: "leakage-temperature fixed point".to_owned(),
                    },
                ));
            }
            let delta = new_temps
                .iter()
                .zip(&temps)
                .map(|(a, b)| (a.degrees() - b.degrees()).abs())
                .fold(0.0, f64::max);
            temps = new_temps;
            if delta < 1e-6 {
                break;
            }
        }
        let dc: Watts = self
            .sockets
            .iter()
            .map(|s| s.power(activity, temps[s.id()]))
            .sum::<Watts>()
            + self
                .dynamics
                .dimm_banks
                .iter()
                .map(|b| b.power(activity))
                .sum::<Watts>()
            + self.config.board_power;
        let _ = &state;
        Ok((temps, dc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phased_step_equals_one_shot_step() {
        // The core's three phases, run by hand, advance the physics
        // exactly as one `Server::step` does (telemetry never feeds
        // back into it).
        let mut phased = ServerCore::new(ServerConfig::default()).unwrap();
        let mut oneshot = crate::Server::new(ServerConfig::default(), 3).unwrap();
        let dt = SimDuration::from_secs(1);
        for i in 0..300 {
            let act = if i % 30 < 15 {
                Utilization::FULL
            } else {
                Utilization::IDLE
            };
            phased.begin_step(dt, act).unwrap();
            phased.integrate(dt).unwrap();
            phased.finish_step(dt);
            oneshot.step(dt, act).unwrap();
        }
        assert_eq!(phased.max_die_temperature(), oneshot.max_die_temperature());
        assert_eq!(phased.air_temperature(1), oneshot.air_temperature(1));
        assert_eq!(phased.total_energy(), oneshot.total_energy());
        assert_eq!(phased.total_power(), oneshot.total_power());
        assert_eq!(phased.now(), oneshot.now());
    }

    #[test]
    fn zero_dt_phases_are_noops() {
        let mut core = ServerCore::new(ServerConfig::default()).unwrap();
        let t = core.now();
        let e = core.total_energy();
        assert_eq!(
            core.begin_step(SimDuration::ZERO, Utilization::FULL)
                .unwrap(),
            SpTransition::None
        );
        core.finish_step(SimDuration::ZERO);
        assert_eq!(core.now(), t);
        assert_eq!(core.total_energy(), e);
    }
}
