//! Resident dynamics lanes: the per-step dynamics of a run of
//! identical-topology servers in contiguous storage.
//!
//! A fleet keeps every hash group's thermal state packed slot-major in
//! [`PackedLanes`], from construction on. [`DynamicsLanes`] keeps the
//! rest of what a step touches beside it: one [`Dynamics`] record per
//! server (fans, failsafe, clock, accounting, DIMM/board/PSU
//! parameters), the socket power models, the start-of-step power
//! injections in the same slot-major layout the solve reads, and the
//! end-of-step total power. Every step is [`DynamicsLanes::begin`] →
//! [`SharedKernel`] solve → [`DynamicsLanes::finish`] over those arrays,
//! with no [`Server`] object touched: one whole-block solve when every
//! lane delivers the same chassis flow, otherwise one solve per flow
//! class ([`DynamicsLanes::flows`] names each lane's). The records run
//! through the same [`Dynamics`] and [`CpuSocket`] methods as
//! [`Server::step`], so the trajectory is bit-identical to stepping the
//! servers one by one.
//!
//! Each per-step power term is evaluated once. A die's leakage
//! (the exponential in temperature) is evaluated by finish at the
//! end-of-step temperatures and carried into the next begin, which
//! steps from those same temperatures; a lane's fan power is evaluated
//! by begin's accounting and carried into finish, since nothing moves
//! the fans in between. Both go through
//! [`CpuSocket::power_with_leakage`] and the record's methods, so the
//! sums keep their operand order and their bits. The leakage carry is
//! stale after [`DynamicsLanes::load`] (construction, restore) and from
//! each begin until its finish — so a step that fails between the two
//! leaves it stale — and a begin with a stale carry evaluates the
//! leakage from the packed temperatures it is given.
//!
//! The lanes are the authority; a server object is a view of its lane
//! plus what only the server holds (telemetry, trace). Whatever reads a
//! server writes its lane back first: [`DynamicsLanes::store_lane`]
//! copies the record, the packed temperatures and the step's inlet into
//! it, and [`DynamicsLanes::poll`] copies the record and temperatures
//! of the lanes whose CSTH poll falls due and records their frames. The
//! server's chassis flow and injected powers are not written back:
//! nothing reads them from a fleet server, and every begin writes all
//! powered slots of [`DynamicsLanes::sources`] before a solve.
//!
//! [`SharedKernel`]: leakctl_thermal::SharedKernel

use leakctl_thermal::{FlowChannelId, NodeId, PackedLanes, RackSpan, ThermalNetwork};
use leakctl_units::{AirFlow, Celsius, Rpm, SimDuration, SimInstant, Utilization, Watts};

use crate::cpu::CpuSocket;
use crate::engine::{Dynamics, SpTransition};
use crate::error::PlatformError;
use crate::fans::FanFault;
use crate::server::Server;

/// The state slots a step injects power into, shared by every server
/// of one topology.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PoweredSlots {
    /// One per socket, in socket order.
    dies: Vec<usize>,
    dimms: [usize; 2],
    board: usize,
}

impl PoweredSlots {
    fn of(server: &Server) -> Self {
        let slot = |node: NodeId| {
            server
                .net
                .state_slot(node)
                .expect("powered nodes are capacitive")
        };
        Self {
            dies: server.socket_nodes.iter().map(|n| slot(n.die)).collect(),
            dimms: server.dimm_nodes.map(slot),
            board: slot(server.air_dimm),
        }
    }
}

/// The per-step dynamics of a contiguous run of servers sharing one
/// thermal topology, stored as arrays beside the run's packed
/// temperatures (see the module docs).
///
/// Lane `i` is server `i` of the slice it was loaded from; every method
/// taking servers expects that same slice.
#[derive(Debug, Clone)]
pub struct DynamicsLanes {
    lanes: usize,
    slots: PoweredSlots,
    records: Vec<Dynamics>,
    /// Socket models, `sockets[lane * per_lane + socket]`.
    sockets: Vec<CpuSocket>,
    /// Power injected over the current step, slot-major
    /// (`[slot * lanes + lane]`); unpowered slot rows stay zero.
    sources: Vec<f64>,
    /// Total power (W) at the end of the last step, per lane.
    powers: Vec<f64>,
    /// Each die's leakage at the block's temperatures as the last
    /// [`Self::finish`] left them, laid out like `sockets`; read by the
    /// next [`Self::begin`] only while `leakage_fresh`.
    leakage: Vec<Watts>,
    /// `true` from a [`Self::finish`] until the next [`Self::begin`]:
    /// the temperatures `leakage` was evaluated at are still the
    /// block's.
    leakage_fresh: bool,
    /// Each lane's fan power over the current step, from
    /// [`Self::begin`]'s accounting, for [`Self::finish`].
    fan_powers: Vec<Watts>,
    /// Each lane's next CSTH poll instant.
    next_poll: Vec<SimInstant>,
    /// Failsafe transitions of the last [`Self::begin`], not yet traced:
    /// `(lane, step start, transition)`.
    events: Vec<(usize, SimInstant, SpTransition)>,
}

impl DynamicsLanes {
    /// Loads the lanes from `servers` (at least one, all of one thermal
    /// topology): their records, socket models, current total powers
    /// and poll schedules. The sources start at zero until the first
    /// [`Self::begin`] writes them, and the leakage carry starts stale,
    /// so that begin evaluates every die's leakage from the block it is
    /// given — whatever temperatures a construction or a restore packed.
    ///
    /// # Panics
    ///
    /// Panics when `servers` is empty or mixes topologies.
    #[must_use]
    pub fn load(servers: &[Server]) -> Self {
        assert!(!servers.is_empty(), "dynamics lanes need a server");
        let lanes = servers.len();
        let hash = servers[0].net.structure_hash();
        assert!(
            servers.iter().all(|s| s.net.structure_hash() == hash),
            "dynamics lanes share one thermal topology"
        );
        let sockets: Vec<CpuSocket> = servers
            .iter()
            .flat_map(|s| s.sockets.iter().copied())
            .collect();
        Self {
            lanes,
            records: servers.iter().map(|s| s.dynamics).collect(),
            leakage: vec![Watts::ZERO; sockets.len()],
            leakage_fresh: false,
            fan_powers: vec![Watts::ZERO; lanes],
            sockets,
            sources: vec![0.0; servers[0].net.state_count() * lanes],
            powers: servers.iter().map(|s| s.total_power().value()).collect(),
            next_poll: servers.iter().map(|s| s.poll.next_fire()).collect(),
            events: Vec::new(),
            slots: PoweredSlots::of(&servers[0]),
        }
    }

    /// Lane `lane`'s dynamics record.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    #[must_use]
    pub fn record(&self, lane: usize) -> &Dynamics {
        &self.records[lane]
    }

    /// Lane `lane`'s total power at the end of the last step.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    #[must_use]
    pub fn power(&self, lane: usize) -> Watts {
        Watts::new(self.powers[lane])
    }

    /// Each lane's delivered chassis flow — after [`Self::begin`], the
    /// flow over the current step.
    pub fn flows(&self) -> impl Iterator<Item = AirFlow> + '_ {
        self.records.iter().map(|r| r.fans.flow())
    }

    /// The power each lane injects over the current step, slot-major —
    /// the per-lane source of the thermal solve.
    #[must_use]
    pub fn sources(&self) -> &[f64] {
        &self.sources
    }

    /// Lane `lane`'s hottest die in the packed block `temps`.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range or `temps` is not this
    /// block's shape.
    #[must_use]
    pub fn max_die_temperature(&self, temps: &PackedLanes, lane: usize) -> Celsius {
        assert_eq!(temps.batch(), self.lanes, "packed block shape");
        assert!(lane < self.lanes, "lane out of range");
        hottest_die(&self.slots.dies, temps.temperatures(), self.lanes, lane)
    }

    /// Commands every lane's fans to `rpm`, as
    /// [`Server::command_fan_speed`] does: a lane whose failsafe is
    /// engaged ignores it, and its server traces that.
    pub fn command_all(&mut self, rpm: Rpm, servers: &mut [Server]) {
        assert_eq!(servers.len(), self.lanes, "one server per lane");
        for (record, server) in self.records.iter_mut().zip(servers) {
            if !record.command_fan_speed(rpm) {
                server.trace_ignored_command(record.now(), rpm);
            }
        }
    }

    /// Injects (or clears, with [`FanFault::None`]) a fan-bank fault on
    /// lane `lane`, as [`Server::inject_fan_fault`] does: the record
    /// takes the fault and `server`, the lane's server, traces it.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range or for a
    /// [`FanFault::Degraded`] flow scale outside `[0, 1]`.
    pub fn inject_fan_fault(&mut self, lane: usize, fault: FanFault, server: &mut Server) {
        let record = &mut self.records[lane];
        record.fans.inject_fault(fault);
        server.trace_fan_fault(record.now(), fault);
    }

    /// Resets every lane's energy, peak-power and timing accumulators.
    pub fn reset_accounting(&mut self) {
        for record in &mut self.records {
            record.reset_accounting();
        }
    }

    /// Phase 1 of a plain step over every lane, reading start-of-step
    /// die temperatures from `temps`: fan supplies and slew, the
    /// failsafe, the socket/DIMM/board powers written into
    /// [`Self::sources`], and energy accounting — each through the
    /// [`Dynamics`] and [`CpuSocket`] methods [`Server::step`] calls.
    /// Each span's lanes run their rack's activity,
    /// `activities[span.rack]`.
    ///
    /// Each die's leakage is the one the last [`Self::finish`]
    /// evaluated at the temperatures it left in `temps`, so `temps` must
    /// be that block, unchanged (a fleet writes its blocks only by
    /// stepping; to start from other temperatures, [`Self::load`] the
    /// lanes again). When the carry is stale — after [`Self::load`], or
    /// when a step failed between its begin and its finish — the
    /// leakage is evaluated from `temps`. Either way the socket power is
    /// [`CpuSocket::power_with_leakage`] of the same leakage bits. This
    /// begin marks the carry stale until its own finish, and keeps each
    /// lane's accounted fan power for that finish.
    ///
    /// Returns the chassis flow when every lane delivers the same flow
    /// (bit for bit) over the step, and `None` when the lanes diverged
    /// (each flow class then needs its own factorization; see
    /// [`Self::flows`]).
    ///
    /// # Panics
    ///
    /// Panics when `temps` is not this block's shape, `spans` do not
    /// tile the block, a span's rack has no activity or `dt` is zero (a
    /// zero-length step has no dynamics; skip it).
    pub fn begin(
        &mut self,
        temps: &PackedLanes,
        dt: SimDuration,
        spans: &[RackSpan],
        activities: &[Utilization],
    ) -> Option<AirFlow> {
        assert_eq!(temps.batch(), self.lanes, "packed block shape");
        assert!(
            RackSpan::cover(spans, self.lanes),
            "rack spans tile the block"
        );
        assert!(!dt.is_zero(), "a zero-length step has no dynamics to begin");
        let lanes = self.lanes;
        let per_lane = self.slots.dies.len();
        let temps = temps.temperatures();
        let carried = std::mem::replace(&mut self.leakage_fresh, false);
        let mut shared: Option<AirFlow> = None;
        let mut homogeneous = true;
        let racks = spans
            .iter()
            .flat_map(|span| span.lanes.clone().map(|_| activities[span.rack]));
        for (lane, (record, activity)) in self.records.iter_mut().zip(racks).enumerate() {
            let flow = record.advance_fans(dt, activity);
            match shared {
                None => shared = Some(flow),
                Some(first) => homogeneous &= first.value().to_bits() == flow.value().to_bits(),
            }
            let start = record.now();
            let transition = record.failsafe(hottest_die(&self.slots.dies, temps, lanes, lane));
            if transition != SpTransition::None {
                self.events.push((lane, start, transition));
            }
            let mut cpu = Watts::ZERO;
            let dies = lane * per_lane..(lane + 1) * per_lane;
            let sockets = self.sockets[dies.clone()].iter();
            for ((socket, leakage), &slot) in
                sockets.zip(&mut self.leakage[dies]).zip(&self.slots.dies)
            {
                let at = slot * lanes + lane;
                if !carried {
                    *leakage = socket.leakage_power(Celsius::new(temps[at]));
                }
                let p = socket.power_with_leakage(activity, *leakage);
                cpu += p;
                self.sources[at] = p.value();
            }
            for (p, slot) in record.dimm_powers().into_iter().zip(self.slots.dimms) {
                self.sources[slot * lanes + lane] = p.value();
            }
            self.sources[self.slots.board * lanes + lane] = record.board_power.value();
            self.fan_powers[lane] = record.account(dt, cpu);
        }
        shared.filter(|_| homogeneous)
    }

    /// Phase 3 of a plain step, after the solve advanced `temps`: every
    /// lane's clock moves by `dt` and its end-of-step total power is
    /// recorded. Returns `true` when some lane's CSTH poll is now due
    /// (call [`Self::poll`]).
    ///
    /// The total takes the fan power [`Self::begin`] accounted (the fan
    /// speeds have not moved since) and evaluates each die's leakage at
    /// the end-of-step temperatures once: the value goes into the
    /// socket power here and is carried into the next begin, which
    /// steps from these same temperatures.
    ///
    /// # Panics
    ///
    /// Panics when `temps` is not this block's shape.
    pub fn finish(&mut self, temps: &PackedLanes, dt: SimDuration) -> bool {
        assert_eq!(temps.batch(), self.lanes, "packed block shape");
        let lanes = self.lanes;
        let per_lane = self.slots.dies.len();
        let temps = temps.temperatures();
        let mut poll_due = false;
        for (lane, (record, power)) in self.records.iter_mut().zip(&mut self.powers).enumerate() {
            record.finish(dt);
            let activity = record.last_activity;
            let mut cpu = Watts::ZERO;
            let dies = lane * per_lane..(lane + 1) * per_lane;
            let sockets = self.sockets[dies.clone()].iter();
            for ((socket, leakage), &slot) in
                sockets.zip(&mut self.leakage[dies]).zip(&self.slots.dies)
            {
                *leakage = socket.leakage_power(Celsius::new(temps[slot * lanes + lane]));
                cpu += socket.power_with_leakage(activity, *leakage);
            }
            *power = record
                .total_power_with_fans(cpu, self.fan_powers[lane])
                .value();
            poll_due |= self.next_poll[lane] <= record.now();
        }
        self.leakage_fresh = true;
        poll_due
    }

    /// Traces the failsafe transitions of the last [`Self::begin`] into
    /// their servers, at the instant each step began.
    pub fn flush_events(&mut self, servers: &mut [Server]) {
        assert_eq!(servers.len(), self.lanes, "one server per lane");
        for (lane, at, transition) in self.events.drain(..) {
            servers[lane].trace_transition(at, transition);
        }
    }

    /// Records the CSTH frames now due: each such lane's record and
    /// packed temperatures are copied into its server, which then polls
    /// exactly as the end of [`Server::step`] does.
    ///
    /// # Errors
    ///
    /// Propagates telemetry failures.
    pub fn poll(
        &mut self,
        temps: &PackedLanes,
        servers: &mut [Server],
    ) -> Result<(), PlatformError> {
        assert_eq!(servers.len(), self.lanes, "one server per lane");
        for (lane, server) in servers.iter_mut().enumerate() {
            if self.next_poll[lane] > self.records[lane].now() {
                continue;
            }
            server.dynamics = self.records[lane];
            temps.unpack_lane_into(lane, &mut server.state);
            server.poll_due()?;
            self.next_poll[lane] = server.poll.next_fire();
        }
        Ok(())
    }

    /// Writes lane `lane` back into `server`: the record, the packed
    /// temperatures and `inlet`, the last step's inlet, as the ambient
    /// boundary, so every temperature, power, energy and fan reading
    /// of the server is the one it would give had it stepped alone.
    /// With no `inlet` (no step yet) the server keeps its own ambient
    /// boundary. The server network's chassis flow and injected powers
    /// keep whatever they last held: nothing reads them from a fleet
    /// server, and [`Server::step`] sets both before it integrates.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range or `temps` is not this
    /// block's shape.
    pub fn store_lane(
        &self,
        lane: usize,
        temps: &PackedLanes,
        inlet: Option<Celsius>,
        server: &mut Server,
    ) {
        assert_eq!(temps.batch(), self.lanes, "packed block shape");
        server.dynamics = self.records[lane];
        temps.unpack_lane_into(lane, &mut server.state);
        if let Some(inlet) = inlet {
            server
                .set_ambient(inlet)
                .expect("a server's own ambient node takes its inlet");
        }
    }
}

/// The hottest of `lane`'s die slots in a slot-major block of `lanes`
/// columns, folded as [`Server::max_die_temperature`] folds.
fn hottest_die(dies: &[usize], temps: &[f64], lanes: usize, lane: usize) -> Celsius {
    dies.iter()
        .map(|&slot| Celsius::new(temps[slot * lanes + lane]))
        .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
}

/// A hash group's representative network: the topology every lane
/// shares, set to one flow class's chassis flow so each class's
/// factorization and its racks' boundary sources are derived from one
/// network instead of from every lane.
#[derive(Debug, Clone)]
pub struct LaneTemplate {
    net: ThermalNetwork,
    chassis: FlowChannelId,
    ambient: NodeId,
}

impl LaneTemplate {
    /// The representative of `server`'s topology.
    #[must_use]
    pub fn of(server: &Server) -> Self {
        Self {
            net: server.net.clone(),
            chassis: server.chassis_flow,
            ambient: server.ambient_node,
        }
    }

    /// Sets the chassis flow the next prepared solve shares.
    ///
    /// # Errors
    ///
    /// Propagates thermal-network failures (never expected for the
    /// template's own channel).
    pub fn set_flow(&mut self, flow: AirFlow) -> Result<(), PlatformError> {
        self.net.set_flow(self.chassis, flow)?;
        Ok(())
    }

    /// One boundary-source column per rack inlet at the current flow
    /// ([`ThermalNetwork::assemble_boundary_sources_into`] with the
    /// ambient node on each inlet): `columns` is resized to
    /// `inlets.len()` columns and filled.
    pub fn boundary_sources_into(&self, inlets: &[Celsius], columns: &mut Vec<f64>) {
        columns.resize(inlets.len() * self.net.state_count(), 0.0);
        self.net
            .assemble_boundary_sources_into(self.ambient, inlets, columns);
    }

    /// The representative network.
    #[must_use]
    pub fn network(&self) -> &ThermalNetwork {
        &self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use leakctl_thermal::BatchSolver;

    /// Each die's injected power equals the socket's power at the
    /// block's die temperature, bit for bit.
    fn assert_die_sources_at(dynamics: &DynamicsLanes, temps: &PackedLanes, load: Utilization) {
        for (socket, &slot) in dynamics.sockets.iter().zip(&dynamics.slots.dies) {
            let want = socket.power(load, Celsius::new(temps.temperatures()[slot]));
            assert_eq!(dynamics.sources()[slot].to_bits(), want.value().to_bits());
        }
    }

    #[test]
    fn leakage_carry_is_rebuilt_after_a_step_without_finish() {
        let server = Server::new(ServerConfig::default(), 1).unwrap();
        let mut dynamics = DynamicsLanes::load(std::slice::from_ref(&server));
        let mut temps = PackedLanes::pack(std::slice::from_ref(server.thermal_state()));
        let mut template = LaneTemplate::of(&server);
        let mut solver = BatchSolver::new(server.thermal_network());
        let dt = SimDuration::from_secs(1);
        let one_rack = [RackSpan {
            lanes: 0..1,
            rack: 0,
        }];
        let inlet = [server.ambient()];
        let mut bound = Vec::new();
        let mut solve = |dynamics: &DynamicsLanes, temps: &mut PackedLanes, flow| {
            template.set_flow(flow).unwrap();
            solver.begin_step();
            let prepared = solver.prepare(template.network(), dt).unwrap();
            template.boundary_sources_into(&inlet, &mut bound);
            let kernel = solver.kernel(&prepared, &bound, template.network());
            kernel
                .step_racks(temps, dynamics.sources(), &one_rack)
                .unwrap();
        };
        let loads = [0.9, 0.4, 1.0, 0.1].map(Utilization::saturating_from_fraction);
        for (i, &load) in loads.iter().cycle().take(40).enumerate() {
            let flow = dynamics.begin(&temps, dt, &one_rack, &[load]).unwrap();
            // Fresh from load, carried from a finish, or rebuilt after
            // a step whose solve moved the temperatures but never
            // finished: always the power at the temperatures stepped
            // from.
            assert_die_sources_at(&dynamics, &temps, load);
            solve(&dynamics, &mut temps, flow);
            if i % 3 != 2 {
                dynamics.finish(&temps, dt);
            }
        }
    }
}
