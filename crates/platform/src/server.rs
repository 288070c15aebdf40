//! The assembled digital-twin server.

use leakctl_sim::{Periodic, SimRng, TraceRecorder};
use leakctl_telemetry::{ChannelId, Csth, SensorBank, SensorSpec, CSTH_POLL_PERIOD};
use leakctl_thermal::{FlowChannelId, NodeId, ThermalNetwork, ThermalState, TransientSolver};
use leakctl_units::{Celsius, Joules, Rpm, SimDuration, SimInstant, Utilization, Watts};

use crate::config::ServerConfig;
use crate::cpu::CpuSocket;
use crate::engine::{Dynamics, ServerNetwork, SocketNodes, SpTransition};
use crate::error::PlatformError;
use crate::fans::FanFault;

/// The digital-twin enterprise server.
///
/// Owns the thermal RC network, the per-component power models, the
/// [`Dynamics`] record (the fan bank with its external supplies, the
/// service-processor failsafe, the clock and energy/peak accounting),
/// the CSTH telemetry harness and the event trace. Drive it with
/// [`Server::step`], command cooling with [`Server::command_fan_speed`],
/// and observe it the way the paper's DLC-PC does — through telemetry.
///
/// A step runs fan/power dynamics with failsafe transitions traced, the
/// thermal integration through the server's cached stepper, and the
/// clock advance with the telemetry poll. A fleet runs the same
/// dynamics for all its servers at once: it moves each server's
/// dynamics record and temperatures into
/// [`DynamicsLanes`](crate::DynamicsLanes) when it is built, steps them
/// there with the same methods, and writes them back whenever the
/// server is read or its telemetry poll falls due. Both paths produce
/// the trajectory of [`Server::step`] bit for bit.
///
/// See the [crate-level example](crate) for basic use.
#[derive(Debug, Clone)]
pub struct Server {
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
    stepper: TransientSolver,
    pub(crate) socket_nodes: Vec<SocketNodes>,
    pub(crate) dimm_nodes: [NodeId; 2],
    pub(crate) air_dimm: NodeId,
    pub(crate) ambient_node: NodeId,
    pub(crate) chassis_flow: FlowChannelId,
    // Telemetry: one sensor per CSTH channel, in registration order.
    csth: Csth,
    sensors: SensorBank,
    /// Per-poll scratch: the true value and the reading of each channel.
    truth: Vec<f64>,
    frame: Vec<f64>,
    /// Per-module DIMM sensor offsets around the bank node.
    dimm_offsets: Vec<f64>,
    cpu_temps: Vec<ChannelId>, // 2 per socket
    pub(crate) poll: Periodic,
    pub(crate) trace: TraceRecorder,
}

impl Server {
    /// Builds a server from `config`, seeding all sensor-noise streams
    /// from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::Config`] for inconsistent configuration
    /// or a thermal-construction failure.
    pub fn new(config: ServerConfig, seed: u64) -> Result<Self, PlatformError> {
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
        let ServerNetwork {
            net,
            socket_nodes,
            dimm_nodes,
            air_dimm,
            ambient_node,
            chassis_flow,
        } = ServerNetwork::build(&config, dynamics.fans.flow())?;
        let state = net.uniform_state(config.ambient);
        let stepper = TransientSolver::new(&net);

        // ---- telemetry --------------------------------------------
        // Channels register in poll order; the fork order below fixes
        // every noise stream.
        let mut rng = SimRng::seed(seed);
        let mut csth = Csth::new(CSTH_POLL_PERIOD);
        let mut sensors = SensorBank::new();
        let mut add = |name: &str, unit: &str, spec, rng| {
            sensors.push(spec, rng);
            csth.add_channel(name, unit)
        };
        let mut cpu_temps = Vec::new();
        for s in 0..config.sockets {
            for d in 0..2 {
                let name = format!("cpu{s}_temp{d}");
                let rng = rng.fork(&name);
                cpu_temps.push(add(&name, "C", SensorSpec::cpu_thermal_diode(), rng)?);
            }
        }
        let mut dimm_offsets = Vec::new();
        for i in 0..config.dimm_count {
            let rng_i = rng.fork(&format!("dimm{i:02}"));
            add(
                &format!("dimm{i:02}_temp"),
                "C",
                SensorSpec::dimm_thermal(),
                rng_i,
            )?;
            dimm_offsets.push(0.8 * rng.next_gaussian());
        }
        let spec = |noise_sigma, quantization| SensorSpec {
            noise_sigma,
            quantization,
            ..SensorSpec::ideal()
        };
        for s in 0..config.sockets {
            for c in 0..config.cores_per_socket {
                let name = format!("cpu{s}_core{c:02}_i");
                let rng = rng.fork(&name);
                add(&name, "A", spec(0.02, 0.001), rng)?;
            }
        }
        // Socket voltages pass through exactly: an ideal channel never
        // draws noise, so its stream is never forked.
        for s in 0..config.sockets {
            add(
                &format!("cpu{s}_vdd"),
                "V",
                SensorSpec::ideal(),
                SimRng::seed(0),
            )?;
        }
        for (name, unit, spec) in [
            ("system_power", "W", SensorSpec::system_power_meter()),
            ("fan_power", "W", spec(0.2, 0.1)),
            ("fan_rpm", "RPM", spec(3.0, 1.0)),
        ] {
            let rng = rng.fork(name);
            add(name, unit, spec, rng)?;
        }
        let channels = csth.channel_count();

        let mut server = Self {
            config,
            dynamics,
            sockets,
            net,
            state,
            stepper,
            socket_nodes,
            dimm_nodes,
            air_dimm,
            ambient_node,
            chassis_flow,
            csth,
            sensors,
            truth: Vec::with_capacity(channels),
            frame: vec![0.0; channels],
            dimm_offsets,
            cpu_temps,
            poll: Periodic::new(SimInstant::ZERO, CSTH_POLL_PERIOD),
            trace: TraceRecorder::with_capacity(10_000),
        };
        // Initial telemetry sample at t = 0.
        server.poll_telemetry()?;
        server.poll.catch_up(SimInstant::ZERO);
        Ok(server)
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
    /// identically configured servers.
    #[must_use]
    pub fn thermal_network(&self) -> &ThermalNetwork {
        &self.net
    }

    /// The thermal state (read side) — e.g. for packing a fleet's
    /// states into batch storage.
    #[must_use]
    pub fn thermal_state(&self) -> &ThermalState {
        &self.state
    }

    /// The temperature of `node` in the live state.
    fn temperature(&self, node: NodeId) -> Celsius {
        self.net.temperature(&self.state, node)
    }

    /// The node handles of `socket`.
    fn socket(&self, socket: usize) -> Result<&SocketNodes, PlatformError> {
        self.socket_nodes
            .get(socket)
            .ok_or(PlatformError::BadIndex {
                kind: "socket",
                index: socket,
            })
    }

    /// Ground-truth die temperature of `socket`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::BadIndex`] for an out-of-range socket.
    pub fn die_temperature(&self, socket: usize) -> Result<Celsius, PlatformError> {
        Ok(self.temperature(self.socket(socket)?.die))
    }

    /// Ground-truth heat-sink temperature of `socket`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::BadIndex`] for an out-of-range socket.
    pub fn sink_temperature(&self, socket: usize) -> Result<Celsius, PlatformError> {
        Ok(self.temperature(self.socket(socket)?.sink))
    }

    /// Ground-truth local air temperature at `socket`'s heat sink.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::BadIndex`] for an out-of-range socket.
    pub fn air_temperature(&self, socket: usize) -> Result<Celsius, PlatformError> {
        Ok(self.temperature(self.socket(socket)?.air))
    }

    /// Ground-truth hottest die temperature.
    #[must_use]
    pub fn max_die_temperature(&self) -> Celsius {
        self.socket_nodes
            .iter()
            .map(|n| self.temperature(n.die))
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
    }

    /// Latest measured value of each CPU temperature channel (2 per
    /// socket), in channel order, as a controller polling CSTH would
    /// see them — the allocation-free single source for every "as a
    /// controller sees it" temperature read.
    pub fn measured_cpu_temps_iter(&self) -> impl Iterator<Item = Celsius> + '_ {
        self.cpu_temps
            .iter()
            .filter_map(|&ch| self.csth.last(ch))
            .map(|(_, v)| Celsius::new(v))
    }

    /// Latest *measured* CPU temperatures collected into a fresh `Vec`.
    ///
    /// Convenience wrapper over [`Server::measured_cpu_temps_iter`];
    /// per-decision control paths should prefer the iterator (or
    /// [`Server::measured_cpu_temps_into`]) to avoid the allocation.
    #[must_use]
    pub fn measured_cpu_temps(&self) -> Vec<Celsius> {
        self.measured_cpu_temps_iter().collect()
    }

    /// Latest *measured* CPU temperatures appended into `out` (cleared
    /// first) — the allocation-free variant for callers that poll every
    /// control period and can reuse a buffer.
    pub fn measured_cpu_temps_into(&self, out: &mut Vec<Celsius>) {
        out.clear();
        out.extend(self.measured_cpu_temps_iter());
    }

    /// Hottest measured CPU temperature, if any sample exists.
    ///
    /// Reads the channel tails directly (no intermediate vector) — this
    /// sits on the per-decision path of every controller.
    #[must_use]
    pub fn max_measured_cpu_temp(&self) -> Option<Celsius> {
        self.measured_cpu_temps_iter()
            .fold(None, |acc, t| Some(acc.map_or(t, |a: Celsius| a.max(t))))
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
            .map(|(s, n)| s.power(activity, self.temperature(n.die)))
            .sum()
    }

    /// Ground-truth total CPU leakage right now (for analysis and for
    /// validating the leakage fit; controllers never see this).
    #[must_use]
    pub fn leakage_power(&self) -> Watts {
        self.sockets
            .iter()
            .zip(&self.socket_nodes)
            .map(|(s, n)| s.leakage_power(self.temperature(n.die)))
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
    /// [`Server::reset_accounting`].
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

    /// The telemetry harness (read side).
    #[must_use]
    pub fn csth(&self) -> &Csth {
        &self.csth
    }

    /// The event trace.
    #[must_use]
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
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
    /// While the thermal failsafe is engaged the command is recorded but
    /// overridden.
    pub fn command_fan_speed(&mut self, rpm: Rpm) {
        if !self.dynamics.command_fan_speed(rpm) {
            self.trace_ignored_command(self.now(), rpm);
        }
    }

    /// Traces a fan command the engaged failsafe overrode, issued at
    /// `at` (shared by this server's own command path and a fleet's
    /// resident lanes).
    pub(crate) fn trace_ignored_command(&mut self, at: SimInstant, rpm: Rpm) {
        self.trace.record(
            at,
            "server",
            format!("fan command {rpm:.0} ignored: failsafe engaged"),
        );
    }

    /// Traces a failsafe transition observed at the start of a step
    /// beginning at `at`.
    pub(crate) fn trace_transition(&mut self, at: SimInstant, transition: SpTransition) {
        match transition {
            SpTransition::ForcedMaxCooling => {
                self.trace
                    .record(at, "service-processor", "failsafe: forcing maximum cooling");
            }
            SpTransition::Released => {
                self.trace
                    .record(at, "service-processor", "failsafe released");
            }
            SpTransition::None => {}
        }
    }

    /// Injects (or clears, with [`FanFault::None`]) a fan-bank fault:
    /// a stuck fan controller or degraded (reduced-airflow) fans. The
    /// fault takes effect from the next step, when the chassis flow is
    /// re-derived from the bank.
    ///
    /// # Panics
    ///
    /// Panics for a [`FanFault::Degraded`] flow scale outside `[0, 1]`.
    pub fn inject_fan_fault(&mut self, fault: FanFault) {
        self.dynamics.fans.inject_fault(fault);
        self.trace_fan_fault(self.now(), fault);
    }

    /// Traces a fan fault injected at `at` (shared by this server's own
    /// fault path and a fleet's lanes).
    pub(crate) fn trace_fan_fault(&mut self, at: SimInstant, fault: FanFault) {
        let label = match fault {
            FanFault::None => "fan fault cleared".to_owned(),
            FanFault::Stuck => "fan controller stuck".to_owned(),
            FanFault::Degraded { flow_scale } => {
                format!("fans degraded to {:.0}% flow", flow_scale * 100.0)
            }
        };
        self.trace.record(at, "server", label);
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
        self.temperature(self.ambient_node)
    }

    /// Resets energy, peak-power and timing accumulators (used between
    /// experiment phases; telemetry history is preserved).
    pub fn reset_accounting(&mut self) {
        self.dynamics.reset_accounting();
    }

    // ---- dynamics ---------------------------------------------------

    /// Advances the machine by `dt` with the given switching activity
    /// (the duty-cycle-averaged instantaneous load over the step, from
    /// `LoadGen`).
    ///
    /// # Errors
    ///
    /// Propagates thermal-solver and telemetry failures.
    pub fn step(&mut self, dt: SimDuration, activity: Utilization) -> Result<(), PlatformError> {
        if dt.is_zero() {
            return Ok(());
        }
        // Fan supplies apply due commands and the fans slew; the
        // failsafe runs on the ground-truth start-of-step hottest die.
        let flow = self.dynamics.advance_fans(dt, activity);
        self.net.set_flow(self.chassis_flow, flow)?;
        let transition = self.dynamics.failsafe(self.max_die_temperature());

        // Component powers from start-of-step temperatures, injected
        // into the network and accounted. Each model is evaluated once
        // (the leakage exponential is the single most expensive
        // power-model term). Every formula here is a `Dynamics` or
        // `CpuSocket` method that `DynamicsLanes::begin` calls too.
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
        self.trace_transition(self.now(), transition);

        self.stepper.step(&self.net, &mut self.state, dt)?;
        self.dynamics.finish(dt);
        self.poll_due()
    }

    /// Records every CSTH frame due at the current instant.
    pub(crate) fn poll_due(&mut self) -> Result<(), PlatformError> {
        let now = self.now();
        while self.poll.is_due(now) {
            self.poll_telemetry()?;
            self.poll.advance();
        }
        Ok(())
    }

    /// Records one telemetry frame at the current instant: every
    /// channel's true value in registration order, measured by the
    /// sensor bank in one pass.
    fn poll_telemetry(&mut self) -> Result<(), PlatformError> {
        let mut truth = std::mem::take(&mut self.truth);
        truth.clear();
        // CPU temperatures: two diodes per die.
        for nodes in &self.socket_nodes {
            let t = self.temperature(nodes.die).degrees();
            truth.extend([t, t]);
        }
        // DIMM temperatures: per-module offset around the bank node.
        let per_bank = self.config.dimm_count / 2;
        for (i, offset) in self.dimm_offsets.iter().enumerate() {
            let bank = self.temperature(self.dimm_nodes[i / per_bank]);
            truth.push(bank.degrees() + offset);
        }
        // Per-core currents, then per-socket voltages.
        for (socket, nodes) in self.sockets.iter().zip(&self.socket_nodes) {
            let die = self.temperature(nodes.die);
            let i = socket
                .core_current(self.dynamics.last_activity, die)
                .value();
            truth.extend(std::iter::repeat_n(i, self.config.cores_per_socket));
        }
        truth.extend(self.sockets.iter().map(|s| s.core_voltage().value()));
        // System power, fan power, fan RPM.
        truth.extend([
            self.system_power().value(),
            self.fan_power().value(),
            self.actual_rpm().value(),
        ]);
        self.sensors.measure_frame(&truth, &mut self.frame);
        self.truth = truth;
        self.csth.record_frame(self.now(), &self.frame)?;
        Ok(())
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
        Ok((temps, dc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(ServerConfig::default(), 42).unwrap()
    }

    /// Run to (approximate) thermal steady state at a fixed activity and
    /// fan speed.
    fn settle(server: &mut Server, activity: Utilization, rpm: Rpm, mins: u64) {
        server.command_fan_speed(rpm);
        for _ in 0..(mins * 60) {
            server.step(SimDuration::from_secs(1), activity).unwrap();
        }
    }

    #[test]
    fn calibration_steady_temperatures_at_full_load() {
        // The calibration anchors of `ServerConfig`'s module doc,
        // reproducing Fig. 1a's steady states.
        let cases = [
            (1800.0, 80.0, 90.0),
            (2400.0, 67.0, 75.0),
            (3000.0, 60.0, 68.0),
            (3600.0, 56.0, 63.0),
            (4200.0, 52.0, 59.0),
        ];
        for (rpm, lo, hi) in cases {
            let mut s = server();
            settle(&mut s, Utilization::FULL, Rpm::new(rpm), 45);
            let t = s.max_die_temperature().degrees();
            assert!(
                (lo..=hi).contains(&t),
                "at {rpm} RPM: die {t:.1} °C outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn calibration_power_draw() {
        let mut s = server();
        settle(&mut s, Utilization::IDLE, Rpm::new(3300.0), 30);
        let idle = s.total_power().value();
        assert!(
            (440.0..=500.0).contains(&idle),
            "idle total power {idle:.0} W"
        );
        settle(&mut s, Utilization::FULL, Rpm::new(3300.0), 30);
        let busy = s.total_power().value();
        assert!(
            (490.0..=560.0).contains(&busy),
            "full-load total power {busy:.0} W"
        );
        let swing = busy - idle;
        assert!(
            (35.0..=70.0).contains(&swing),
            "idle→full swing {swing:.0} W should reflect k1·100 plus leakage growth"
        );
    }

    #[test]
    fn faster_fans_cool_the_dies() {
        let mut slow = server();
        settle(&mut slow, Utilization::FULL, Rpm::new(1800.0), 40);
        let mut fast = server();
        settle(&mut fast, Utilization::FULL, Rpm::new(4200.0), 40);
        assert!(
            slow.max_die_temperature().degrees() - fast.max_die_temperature().degrees() > 15.0,
            "1800 vs 4200 RPM should differ by tens of °C"
        );
        assert!(fast.fan_power() > slow.fan_power());
    }

    #[test]
    fn thermal_time_constant_depends_on_fan_speed() {
        // Fig. 1a: the 1800 RPM transient is several times slower than
        // the 4200 RPM one. Measure time to cover 63 % of the rise.
        let tau_at = |rpm: f64| {
            let mut s = server();
            s.command_fan_speed(Rpm::new(rpm));
            // Let fans settle and machine idle-stabilize first.
            for _ in 0..600 {
                s.step(SimDuration::from_secs(1), Utilization::IDLE)
                    .unwrap();
            }
            let t0 = s.max_die_temperature().degrees();
            let (target, _) = s
                .steady_state_preview(Utilization::FULL, Rpm::new(rpm))
                .unwrap();
            let t_inf = target
                .iter()
                .map(|t| t.degrees())
                .fold(f64::NEG_INFINITY, f64::max);
            let threshold = t0 + 0.632 * (t_inf - t0);
            let mut secs = 0u64;
            while s.max_die_temperature().degrees() < threshold && secs < 3_600 {
                s.step(SimDuration::from_secs(1), Utilization::FULL)
                    .unwrap();
                secs += 1;
            }
            secs as f64
        };
        let tau_slow = tau_at(1800.0);
        let tau_fast = tau_at(4200.0);
        assert!(
            tau_slow > 1.5 * tau_fast,
            "τ(1800)={tau_slow}s should clearly exceed τ(4200)={tau_fast}s"
        );
        assert!(
            (60.0..=600.0).contains(&tau_fast),
            "τ(4200)={tau_fast}s out of plausible band"
        );
        assert!(
            (120.0..=900.0).contains(&tau_slow),
            "τ(1800)={tau_slow}s out of plausible band"
        );
    }

    #[test]
    fn energy_accounting_consistent() {
        let mut s = server();
        settle(&mut s, Utilization::FULL, Rpm::new(3000.0), 10);
        let total = s.total_energy().value();
        let parts = s.system_energy().value() + s.fan_energy().value();
        assert!((total - parts).abs() < 1e-6);
        assert_eq!(s.accounted_time(), SimDuration::from_mins(10));
        // Average power implied by energy is within the instantaneous
        // power band.
        let avg = s.total_energy().average_power(s.accounted_time()).value();
        assert!((400.0..=600.0).contains(&avg), "average power {avg:.0} W");
        s.reset_accounting();
        assert_eq!(s.total_energy(), Joules::ZERO);
        assert_eq!(s.peak_power(), Watts::ZERO);
    }

    #[test]
    fn telemetry_polls_every_ten_seconds() {
        let mut s = server();
        for _ in 0..95 {
            s.step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        let ch = s.csth().channel_by_name("cpu0_temp0").unwrap();
        // t = 0 initial + polls at 10..90 = 10 samples.
        assert_eq!(s.csth().series(ch).len(), 10);
        let temps = s.measured_cpu_temps();
        assert_eq!(temps.len(), 4);
        let mut reused = Vec::new();
        s.measured_cpu_temps_into(&mut reused);
        assert_eq!(temps, reused);
        assert_eq!(s.measured_cpu_temps_iter().count(), 4);
        assert!(s.max_measured_cpu_temp().is_some());
        // Measured temps track the truth within sensor error.
        let truth = s.max_die_temperature().degrees();
        let measured = s.max_measured_cpu_temp().unwrap().degrees();
        assert!((truth - measured).abs() < 3.0);
    }

    #[test]
    fn telemetry_channel_inventory_matches_paper() {
        let s = server();
        // 4 CPU temps, 32 DIMM temps, 32 core currents, 2 Vdd, system
        // power, fan power, fan RPM.
        assert_eq!(s.csth().channel_count(), 4 + 32 + 32 + 2 + 3);
    }

    #[test]
    fn failsafe_trips_under_impossible_cooling() {
        // Cripple convection so the die overheats at min fan speed.
        let config = ServerConfig {
            sink_conv_g_ref: leakctl_units::ThermalConductance::new(0.8),
            sink_conv_g_min: leakctl_units::ThermalConductance::new(0.01),
            ..ServerConfig::default()
        };
        let mut s = Server::new(config, 1).unwrap();
        s.command_fan_speed(Rpm::new(1800.0));
        for _ in 0..3_600 {
            s.step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
            if s.failsafe_activations() > 0 {
                break;
            }
        }
        assert!(s.failsafe_activations() > 0, "failsafe should trip");
        // Let the forced command propagate through the supply latency.
        for _ in 0..10 {
            s.step(SimDuration::from_secs(1), Utilization::FULL)
                .unwrap();
        }
        // While engaged, external commands are ignored.
        s.command_fan_speed(Rpm::new(1800.0));
        assert!(s.commanded_rpm() > Rpm::new(4000.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut s = Server::new(ServerConfig::default(), seed).unwrap();
            s.command_fan_speed(Rpm::new(2400.0));
            for i in 0..300 {
                let act = if i % 40 < 20 {
                    Utilization::FULL
                } else {
                    Utilization::IDLE
                };
                s.step(SimDuration::from_secs(1), act).unwrap();
            }
            (
                s.max_die_temperature(),
                s.total_energy(),
                s.measured_cpu_temps(),
            )
        };
        assert_eq!(run(7), run(7));
        let (t1, e1, m1) = run(7);
        let (t2, e2, m2) = run(8);
        // Ground truth identical (same physics), measurements differ.
        assert_eq!(t1, t2);
        assert_eq!(e1, e2);
        assert_ne!(m1, m2);
    }

    #[test]
    fn steady_state_preview_matches_transient_settling() {
        let mut s = server();
        let (preview, _) = s
            .steady_state_preview(Utilization::FULL, Rpm::new(3000.0))
            .unwrap();
        settle(&mut s, Utilization::FULL, Rpm::new(3000.0), 60);
        for (socket, want) in preview.iter().enumerate() {
            let got = s.die_temperature(socket).unwrap().degrees();
            assert!(
                (got - want.degrees()).abs() < 1.0,
                "socket {socket}: transient {got:.1} vs preview {want:.1}"
            );
        }
    }

    #[test]
    fn process_variation_shows_in_die_temperatures() {
        let mut s = server();
        settle(&mut s, Utilization::FULL, Rpm::new(2400.0), 45);
        let t0 = s.die_temperature(0).unwrap().degrees();
        let t1 = s.die_temperature(1).unwrap().degrees();
        assert!(
            (t1 - t0).abs() > 0.1,
            "sigma 0.96 vs 1.04 should separate die temps, got {t0:.2} vs {t1:.2}"
        );
    }

    #[test]
    fn bad_socket_index_rejected() {
        let s = server();
        assert!(matches!(
            s.die_temperature(5),
            Err(PlatformError::BadIndex { .. })
        ));
    }

    #[test]
    fn preview_reports_thermal_runaway() {
        // At extreme ambient with minimum airflow the exponential
        // leakage has no finite fixed point.
        let config = ServerConfig {
            ambient: Celsius::new(55.0),
            ..ServerConfig::default()
        };
        let s = Server::new(config, 1).unwrap();
        let result = s.steady_state_preview(Utilization::FULL, Rpm::new(1800.0));
        assert!(
            matches!(
                result,
                Err(PlatformError::Thermal(
                    leakctl_thermal::ThermalError::Diverged { .. }
                ))
            ),
            "expected divergence, got {result:?}"
        );
    }

    #[test]
    fn ambient_setter_round_trips() {
        let mut s = server();
        assert_eq!(s.ambient(), Celsius::new(24.0));
        s.set_ambient(Celsius::new(30.0)).unwrap();
        assert_eq!(s.ambient(), Celsius::new(30.0));
        // Hotter inlet warms the dies at steady state.
        let (hot, _) = s
            .steady_state_preview(Utilization::FULL, Rpm::new(3000.0))
            .unwrap();
        s.set_ambient(Celsius::new(24.0)).unwrap();
        let (cool, _) = s
            .steady_state_preview(Utilization::FULL, Rpm::new(3000.0))
            .unwrap();
        assert!(hot[0] > cool[0]);
    }

    #[test]
    fn zero_step_is_noop() {
        let mut s = server();
        settle(&mut s, Utilization::FULL, Rpm::new(2400.0), 2);
        let before = s.clone();
        s.step(SimDuration::ZERO, Utilization::IDLE).unwrap();
        assert_eq!(s.now(), before.now());
        assert_eq!(s.total_energy(), before.total_energy());
        assert_eq!(s.accounted_time(), before.accounted_time());
        assert_eq!(s.thermal_state(), before.thermal_state());
        assert_eq!(s.current_activity(), before.current_activity());
        assert_eq!(s.csth().frame_count(), before.csth().frame_count());
    }

    #[test]
    fn phased_step_bit_identical_to_plain_step() {
        // The fleet's lane protocol — begin over the dynamics lanes, the
        // shared kernel over packed temperatures, finish, poll — must
        // reproduce Server::step exactly, telemetry included, across a
        // mid-run fan command that moves the shared factorization.
        use crate::{DynamicsLanes, LaneTemplate};
        use leakctl_thermal::{BatchSolver, PackedLanes, RackSpan};

        let mut laned = server();
        let mut plain = server();
        let mut dynamics = DynamicsLanes::load(std::slice::from_ref(&laned));
        let mut temps = PackedLanes::pack(std::slice::from_ref(laned.thermal_state()));
        let mut template = LaneTemplate::of(&laned);
        let mut solver = BatchSolver::new(laned.thermal_network());
        let inlet = laned.ambient();
        let mut bound = Vec::new();
        let dt = SimDuration::from_secs(1);
        for i in 0..240 {
            if i == 100 {
                dynamics.command_all(Rpm::new(4200.0), std::slice::from_mut(&mut laned));
                plain.command_fan_speed(Rpm::new(4200.0));
            }
            let act = if i % 50 < 25 {
                Utilization::FULL
            } else {
                Utilization::IDLE
            };
            let one_rack = [RackSpan {
                lanes: 0..1,
                rack: 0,
            }];
            let flow = dynamics
                .begin(&temps, dt, &one_rack, &[act])
                .expect("one lane agrees with itself");
            dynamics.flush_events(std::slice::from_mut(&mut laned));
            template.set_flow(flow).unwrap();
            solver.begin_step();
            let prepared = solver.prepare(template.network(), dt).unwrap();
            template.boundary_sources_into(&[inlet], &mut bound);
            let kernel = solver.kernel(&prepared, &bound, template.network());
            kernel
                .step_racks(&mut temps, dynamics.sources(), &one_rack)
                .unwrap();
            if dynamics.finish(&temps, dt) {
                dynamics
                    .poll(&temps, std::slice::from_mut(&mut laned))
                    .unwrap();
            }
            plain.step(dt, act).unwrap();
        }
        assert_eq!(dynamics.power(0), plain.total_power());
        dynamics.store_lane(0, &temps, Some(inlet), &mut laned);
        assert_eq!(laned.max_die_temperature(), plain.max_die_temperature());
        assert_eq!(laned.air_temperature(0), plain.air_temperature(0));
        assert_eq!(laned.total_energy(), plain.total_energy());
        assert_eq!(laned.now(), plain.now());
        assert_eq!(laned.measured_cpu_temps(), plain.measured_cpu_temps());
        assert_eq!(laned.csth().frame_count(), plain.csth().frame_count());
        assert!(solver.group_count() > 1, "the command moved the flow");
    }
}
