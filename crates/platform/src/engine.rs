//! The server's physics, split from its telemetry: the [`Dynamics`]
//! record and the thermal network's construction.
//!
//! A [`Dynamics`] record holds fans, failsafe, clock, applied activity,
//! energy/peak accounting and the DIMM/board/PSU power parameters — a
//! plain `Copy` value with no heap pointers. Every formula of a step
//! outside the thermal solve is a [`Dynamics`] method (or a
//! [`CpuSocket`](crate::CpuSocket) one), and both
//! [`Server::step`](crate::Server::step) and the fleet's resident lanes
//! ([`DynamicsLanes`](crate::DynamicsLanes), which keep one record per
//! server in contiguous storage and solve over packed temperatures
//! through a shared [`BatchSolver`](leakctl_thermal::BatchSolver)) call
//! the same methods, so every path advances the physics identically.

use leakctl_power::PsuModel;
use leakctl_sim::Clock;
use leakctl_thermal::{
    ConvectionModel, Coupling, FlowChannelId, NodeId, ThermalNetwork, ThermalNetworkBuilder,
};
use leakctl_units::{
    AirFlow, Celsius, Joules, Rpm, SimDuration, SimInstant, ThermalConductance, Utilization, Watts,
};

use crate::config::ServerConfig;
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
/// trace (the [`Dynamics`] record itself records nothing).
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
/// A plain `Copy` record with no heap pointers. A
/// [`Server`](crate::Server) embeds one, and a fleet keeps one per
/// resident server in contiguous storage; both step it through the same
/// methods.
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
    pub(crate) fn new(config: &ServerConfig) -> Self {
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

/// A server's thermal RC network with the handles of the nodes and the
/// flow channel a step drives; [`Server::new`](crate::Server::new)
/// takes it apart into its own fields.
pub(crate) struct ServerNetwork {
    pub(crate) net: ThermalNetwork,
    pub(crate) socket_nodes: Vec<SocketNodes>,
    pub(crate) dimm_nodes: [NodeId; 2],
    pub(crate) air_dimm: NodeId,
    pub(crate) ambient_node: NodeId,
    pub(crate) chassis_flow: FlowChannelId,
}

impl ServerNetwork {
    /// Builds the network of a validated `config`, with the chassis
    /// delivering `flow`.
    pub(crate) fn build(config: &ServerConfig, flow: AirFlow) -> Result<Self, PlatformError> {
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
        net.set_flow(chassis_flow, flow)?;
        Ok(Self {
            net,
            socket_nodes,
            dimm_nodes,
            air_dimm,
            ambient_node: ambient,
            chassis_flow,
        })
    }
}
