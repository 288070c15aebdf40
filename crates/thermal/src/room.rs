//! Room-scale CFD-lite: a machine room as a coarse network of coupled
//! air volumes.
//!
//! [`RoomAirModel`] assembles CRAH supply, an under-floor plenum, per-
//! rack cold/hot aisle volumes and a hot-aisle return into one sparse
//! [`ThermalNetwork`] solved by the existing solver backends (the
//! [`AutoBackend`](crate::AutoBackend) picks the CSR path once the room
//! crosses [`CSR_NODE_THRESHOLD`](crate::CSR_NODE_THRESHOLD) nodes).
//! The airflow bookkeeping follows the coarse air-volume room models of
//! the thermal-aware data-center control literature (Van Damme et al.;
//! Ogura et al.): per rack `r` with through-flow `q_r` and
//! recirculation fraction `β`,
//!
//! ```text
//!            (1−β)·Σq        (1−β)·q_r
//!  CRAH ────────────► plenum ──────────► cold_r ──q_r──► hot_r
//!   ▲                                      ▲               │
//!   │            β·q_r (hot-aisle recirculation)           │
//!   │                                      └───────────────┤
//!   └───────────────── return ◄────────────(1−β)·q_r ──────┘
//! ```
//!
//! so the cold aisle mixes `(1−β)` supply air with `β` hot-aisle air,
//! the rack heats its full through-flow, and `(1−β)·Σq` returns to the
//! CRAH. The scheme conserves energy *exactly* at steady state: the
//! CRAH heat extraction `(1−β)·Σq·ρ·c_p·(T_return − T_supply)` equals
//! the total rack power for any recirculation fraction and any tile
//! split (pinned by this module's tests).
//!
//! Rack servers couple through two runtime inputs: rack power is
//! injected into the hot-aisle node
//! ([`RoomAirModel::set_rack_power`]) and the cold-aisle temperature
//! ([`RoomAirModel::cold_aisle_temperature`]) becomes the rack's inlet
//! boundary — replacing the scalar `T_inlet = T_room + r·P`
//! approximation. Tile flows are per-rack runtime channels
//! ([`RoomAirModel::set_tile_flow`]), so tile-flow balancing and CRAH
//! set-point control ([`RoomAirModel::set_supply`]) are both live
//! control surfaces, not rebuild parameters.

use leakctl_units::{AirFlow, Celsius, SimDuration, ThermalCapacitance, Watts};

use crate::error::ThermalError;
use crate::network::{Coupling, FlowChannelId, NodeId, ThermalNetwork, ThermalNetworkBuilder};
use crate::stepper::TransientSolver;
use crate::{ThermalState, AIR_DENSITY, AIR_SPECIFIC_HEAT};

/// Specification of a room air network: rack count, CRAH supply
/// set-point, hot-aisle recirculation fraction and per-rack tile
/// flows.
///
/// Capacitances default to plausible coarse-volume values (a ~40 m³
/// plenum, ~2 m³ aisle segments); they set the air-side time constants
/// only and drop out of every steady-state balance.
#[derive(Debug, Clone)]
pub struct RoomAirSpec {
    /// Number of racks (one cold/hot aisle segment pair each).
    pub racks: usize,
    /// CRAH supply (set-point) temperature.
    pub supply: Celsius,
    /// Fraction `β ∈ [0, 1)` of each rack's exhaust that recirculates
    /// into its cold aisle instead of returning to the CRAH.
    pub recirculation: f64,
    /// Per-rack through-flow `q_r` (one entry per rack, all positive).
    pub tile_flows: Vec<AirFlow>,
    /// Heat capacity of the under-floor plenum air volume.
    pub plenum_capacitance: ThermalCapacitance,
    /// Heat capacity of each cold/hot aisle segment.
    pub aisle_capacitance: ThermalCapacitance,
    /// Heat capacity of the hot-aisle return volume.
    pub return_capacitance: ThermalCapacitance,
}

impl RoomAirSpec {
    /// A spec with `racks` equal tile flows summing to `total_flow`.
    #[must_use]
    pub fn uniform(racks: usize, supply: Celsius, total_flow: AirFlow, recirculation: f64) -> Self {
        let per_rack = AirFlow::new(total_flow.value() / racks.max(1) as f64);
        Self::with_tile_flows(supply, vec![per_rack; racks], recirculation)
    }

    /// A spec with explicit per-rack tile flows.
    #[must_use]
    pub fn with_tile_flows(supply: Celsius, tile_flows: Vec<AirFlow>, recirculation: f64) -> Self {
        Self {
            racks: tile_flows.len(),
            supply,
            recirculation,
            tile_flows,
            plenum_capacitance: ThermalCapacitance::new(40.0 * AIR_DENSITY * AIR_SPECIFIC_HEAT),
            aisle_capacitance: ThermalCapacitance::new(2.0 * AIR_DENSITY * AIR_SPECIFIC_HEAT),
            return_capacitance: ThermalCapacitance::new(20.0 * AIR_DENSITY * AIR_SPECIFIC_HEAT),
        }
    }

    fn validate(&self) -> Result<(), ThermalError> {
        if self.racks == 0 {
            return Err(ThermalError::InvalidRoom {
                what: "room needs at least one rack",
            });
        }
        if self.tile_flows.len() != self.racks {
            return Err(ThermalError::InvalidRoom {
                what: "one tile flow per rack required",
            });
        }
        if !(self.recirculation >= 0.0 && self.recirculation < 1.0) {
            return Err(ThermalError::InvalidRoom {
                what: "recirculation fraction must be in [0, 1)",
            });
        }
        if self
            .tile_flows
            .iter()
            .any(|q| !(q.value() > 0.0 && q.value().is_finite()))
        {
            return Err(ThermalError::InvalidRoom {
                what: "tile flows must be positive and finite",
            });
        }
        if !self.supply.degrees().is_finite() {
            return Err(ThermalError::InvalidRoom {
                what: "supply temperature must be finite",
            });
        }
        Ok(())
    }
}

/// Per-rack node handles inside a [`RoomAirModel`].
#[derive(Debug, Clone, Copy)]
struct RackNodes {
    cold: NodeId,
    hot: NodeId,
    channel: FlowChannelId,
}

/// A machine room as a stepped air-volume network — CRAH supply,
/// plenum, per-rack cold/hot aisles, recirculation and return, with
/// exact steady-state energy conservation (see the module-level
/// discussion at the top of this file for the airflow graph).
///
/// # Example
///
/// ```
/// use leakctl_thermal::{RoomAirModel, RoomAirSpec};
/// use leakctl_units::{AirFlow, Celsius, SimDuration, Watts};
///
/// # fn main() -> Result<(), leakctl_thermal::ThermalError> {
/// let spec = RoomAirSpec::uniform(4, Celsius::new(18.0), AirFlow::new(12.0), 0.2);
/// let mut room = RoomAirModel::new(spec)?;
/// for rack in 0..4 {
///     room.set_rack_power(rack, Watts::new(12_000.0))?;
/// }
/// for _ in 0..600 {
///     room.step(SimDuration::from_secs(1))?;
/// }
/// // The cold aisle sits above the 18 °C supply (recirculation) and
/// // the CRAH extracts what the racks dissipate.
/// assert!(room.cold_aisle_temperature(0).degrees() > 18.0);
/// assert!((room.crah_heat_removed().value() - 48_000.0).abs() < 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RoomAirModel {
    net: ThermalNetwork,
    state: ThermalState,
    solver: TransientSolver,
    supply_node: NodeId,
    supply_channel: FlowChannelId,
    /// Return → plenum bypass carrying the share of the return stream
    /// the CRAH can no longer condition (zero flow at full capacity).
    outage_channel: FlowChannelId,
    plenum: NodeId,
    ret: NodeId,
    racks: Vec<RackNodes>,
    recirculation: f64,
    /// CRAH capacity fraction `c ∈ [0, 1]`: the share of the return
    /// stream that passes through the (boundary-pinned) supply; the
    /// rest bypasses uncooled through `outage_channel`.
    crah_capacity: f64,
    /// Per-rack *commanded* tile flows; the live channel carries
    /// `commanded · (1 − blockage)`.
    commanded_flows: Vec<AirFlow>,
    /// Per-rack tile blockage fraction `b ∈ [0, 1]`.
    blockage: Vec<f64>,
    /// Scratch state for [`RoomAirModel::preview_supply`] (kept so
    /// repeated previews never allocate).
    preview: ThermalState,
}

impl RoomAirModel {
    /// Builds the room network from `spec`, starting every air volume
    /// at the supply temperature.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidRoom`] for an inconsistent spec.
    pub fn new(spec: RoomAirSpec) -> Result<Self, ThermalError> {
        spec.validate()?;
        let beta = spec.recirculation;
        let mut b = ThermalNetworkBuilder::new();
        let supply_node = b.add_boundary("crah_supply", spec.supply);
        let supply_channel = b.add_flow_channel("crah_supply");
        let outage_channel = b.add_flow_channel("crah_bypass");
        // The aisles come before the hubs. The CSR LU eliminates in
        // node order without reordering: eliminating the plenum or the
        // return first (each is coupled to every rack) would fill the
        // factor densely, while eliminating them last keeps it O(racks).
        let racks: Vec<RackNodes> = (0..spec.racks)
            .map(|r| RackNodes {
                cold: b.add_node(&format!("cold{r}"), spec.aisle_capacitance),
                hot: b.add_node(&format!("hot{r}"), spec.aisle_capacitance),
                channel: b.add_flow_channel(&format!("tile{r}")),
            })
            .collect();
        let plenum = b.add_node("plenum", spec.plenum_capacitance);
        let ret = b.add_node("return", spec.return_capacitance);
        b.connect_directed(
            supply_node,
            plenum,
            Coupling::Advective {
                channel: supply_channel,
                fraction: 1.0,
            },
        )?;
        // Built with zero flow: it only carries air when the CRAH is
        // derated, so nominal rooms assemble the exact same system as
        // before the fault surface existed (zero-flow edges are
        // skipped).
        b.connect_directed(
            ret,
            plenum,
            Coupling::Advective {
                channel: outage_channel,
                fraction: 1.0,
            },
        )?;
        for &RackNodes { cold, hot, channel } in &racks {
            b.connect_directed(
                plenum,
                cold,
                Coupling::Advective {
                    channel,
                    fraction: 1.0 - beta,
                },
            )?;
            if beta > 0.0 {
                b.connect_directed(
                    hot,
                    cold,
                    Coupling::Advective {
                        channel,
                        fraction: beta,
                    },
                )?;
            }
            b.connect_directed(
                cold,
                hot,
                Coupling::Advective {
                    channel,
                    fraction: 1.0,
                },
            )?;
            b.connect_directed(
                hot,
                ret,
                Coupling::Advective {
                    channel,
                    fraction: 1.0 - beta,
                },
            )?;
        }
        let mut net = b.build()?;
        for (nodes, q) in racks.iter().zip(&spec.tile_flows) {
            net.set_flow(nodes.channel, *q)?;
        }
        let total: f64 = spec.tile_flows.iter().map(|q| q.value()).sum();
        net.set_flow(supply_channel, AirFlow::new((1.0 - beta) * total))?;
        let state = net.uniform_state(spec.supply);
        let preview = state.clone();
        let solver = TransientSolver::new(&net);
        let commanded_flows = spec.tile_flows.clone();
        let blockage = vec![0.0; spec.racks];
        Ok(Self {
            net,
            state,
            solver,
            supply_node,
            supply_channel,
            outage_channel,
            plenum,
            ret,
            racks,
            recirculation: beta,
            crah_capacity: 1.0,
            commanded_flows,
            blockage,
            preview,
        })
    }

    /// Number of racks.
    #[must_use]
    pub fn racks(&self) -> usize {
        self.racks.len()
    }

    /// The underlying network (read side).
    #[must_use]
    pub fn network(&self) -> &ThermalNetwork {
        &self.net
    }

    /// The air-volume temperature state (read side).
    #[must_use]
    pub fn state(&self) -> &ThermalState {
        &self.state
    }

    /// `true` when the room is large enough that the solver picked the
    /// CSR sparse backend.
    #[must_use]
    pub fn is_sparse(&self) -> bool {
        self.solver.is_sparse()
    }

    /// The recirculation fraction the room was built with (structural:
    /// advective split fractions are part of the network structure).
    #[must_use]
    pub fn recirculation(&self) -> f64 {
        self.recirculation
    }

    /// Injects rack `rack`'s dissipated power into its hot-aisle
    /// volume.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidRoom`] for an out-of-range rack.
    pub fn set_rack_power(&mut self, rack: usize, power: Watts) -> Result<(), ThermalError> {
        let nodes = self.rack_nodes(rack)?;
        self.net.set_power(nodes.hot, power)
    }

    /// Re-pins the CRAH supply set-point (the set-point-control
    /// surface the paper's cooling/leakage trade-off turns on).
    ///
    /// # Errors
    ///
    /// Propagates network errors (never expected for the built-in
    /// supply boundary).
    pub fn set_supply(&mut self, supply: Celsius) -> Result<(), ThermalError> {
        self.net.set_boundary(self.supply_node, supply)
    }

    /// Re-balances rack `rack`'s tile flow and updates the CRAH supply
    /// flow to match the new total (the tile-flow-optimization control
    /// surface).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidRoom`] for an out-of-range rack
    /// or non-positive flow.
    pub fn set_tile_flow(&mut self, rack: usize, flow: AirFlow) -> Result<(), ThermalError> {
        if !(flow.value() > 0.0 && flow.value().is_finite()) {
            return Err(ThermalError::InvalidRoom {
                what: "tile flows must be positive and finite",
            });
        }
        let channel = self.rack_nodes(rack)?.channel;
        self.commanded_flows[rack] = flow;
        let effective = AirFlow::new(flow.value() * (1.0 - self.blockage[rack]));
        self.net.set_flow(channel, effective)?;
        self.refresh_crah_flows()
    }

    /// Derates the CRAH to capacity fraction `c ∈ [0, 1]`: only a
    /// `c`-share of the return stream passes through the conditioned
    /// supply; the rest bypasses uncooled into the plenum, so the
    /// plenum's mass balance (and hence the steady-state energy
    /// balance) is preserved at every capacity. `c = 0` is a full
    /// outage: the supply boundary detaches from the airflow graph and
    /// the room has no steady state (see [`Self::solve_steady`]) while
    /// transient stepping keeps integrating the heat-up.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidRoom`] for a capacity outside
    /// `[0, 1]`.
    pub fn set_crah_capacity(&mut self, capacity: f64) -> Result<(), ThermalError> {
        if !(capacity.is_finite() && (0.0..=1.0).contains(&capacity)) {
            return Err(ThermalError::InvalidRoom {
                what: "CRAH capacity must be in [0, 1]",
            });
        }
        self.crah_capacity = capacity;
        self.refresh_crah_flows()
    }

    /// The current CRAH capacity fraction (1.0 when healthy).
    #[must_use]
    pub fn crah_capacity(&self) -> f64 {
        self.crah_capacity
    }

    /// Blocks fraction `b ∈ [0, 1]` of rack `rack`'s perforated tile:
    /// the live through-flow becomes `commanded · (1 − b)` while the
    /// commanded value is retained, so clearing the blockage restores
    /// the exact pre-fault flows.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidRoom`] for an out-of-range rack
    /// or a blockage outside `[0, 1]`.
    pub fn set_tile_blockage(&mut self, rack: usize, blockage: f64) -> Result<(), ThermalError> {
        if !(blockage.is_finite() && (0.0..=1.0).contains(&blockage)) {
            return Err(ThermalError::InvalidRoom {
                what: "tile blockage must be in [0, 1]",
            });
        }
        let channel = self.rack_nodes(rack)?.channel;
        self.blockage[rack] = blockage;
        let effective = AirFlow::new(self.commanded_flows[rack].value() * (1.0 - blockage));
        self.net.set_flow(channel, effective)?;
        self.refresh_crah_flows()
    }

    /// Rack `rack`'s tile blockage fraction (0.0 when clear).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidRoom`] for an out-of-range rack.
    pub fn tile_blockage(&self, rack: usize) -> Result<f64, ThermalError> {
        self.rack_nodes(rack)?;
        Ok(self.blockage[rack])
    }

    /// Rack `rack`'s *commanded* tile flow (what the controller asked
    /// for; the live flow is this times `1 − blockage`).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidRoom`] for an out-of-range rack.
    pub fn commanded_tile_flow(&self, rack: usize) -> Result<AirFlow, ThermalError> {
        self.rack_nodes(rack)?;
        Ok(self.commanded_flows[rack])
    }

    /// Recomputes the supply and bypass channel flows from the
    /// effective tile flows and the CRAH capacity. Generation counters
    /// bump only on real value changes, so nominal rooms never pay for
    /// the fault surface.
    fn refresh_crah_flows(&mut self) -> Result<(), ThermalError> {
        let total: f64 = self
            .racks
            .iter()
            .map(|n| self.net.flow(n.channel).value())
            .sum();
        let returned = (1.0 - self.recirculation) * total;
        self.net.set_flow(
            self.supply_channel,
            AirFlow::new(self.crah_capacity * returned),
        )?;
        self.net.set_flow(
            self.outage_channel,
            AirFlow::new((1.0 - self.crah_capacity) * returned),
        )
    }

    /// Rack `rack`'s current tile flow.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidRoom`] for an out-of-range rack.
    pub fn tile_flow(&self, rack: usize) -> Result<AirFlow, ThermalError> {
        Ok(self.net.flow(self.rack_nodes(rack)?.channel))
    }

    /// Total rack through-flow `Σq_r`.
    #[must_use]
    pub fn total_tile_flow(&self) -> AirFlow {
        AirFlow::new(
            self.racks
                .iter()
                .map(|n| self.net.flow(n.channel).value())
                .sum(),
        )
    }

    /// Rack `rack`'s cold-aisle temperature — the inlet boundary its
    /// servers see.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range rack.
    #[must_use]
    pub fn cold_aisle_temperature(&self, rack: usize) -> Celsius {
        self.net.temperature(&self.state, self.racks[rack].cold)
    }

    /// Rack `rack`'s hot-aisle temperature.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range rack.
    #[must_use]
    pub fn hot_aisle_temperature(&self, rack: usize) -> Celsius {
        self.net.temperature(&self.state, self.racks[rack].hot)
    }

    /// The under-floor plenum temperature.
    #[must_use]
    pub fn plenum_temperature(&self) -> Celsius {
        self.net.temperature(&self.state, self.plenum)
    }

    /// The mixed hot-aisle return temperature at the CRAH intake.
    #[must_use]
    pub fn return_temperature(&self) -> Celsius {
        self.net.temperature(&self.state, self.ret)
    }

    /// The CRAH supply set-point.
    #[must_use]
    pub fn supply_temperature(&self) -> Celsius {
        self.net.temperature(&self.state, self.supply_node)
    }

    /// Heat the CRAH currently extracts from the return stream:
    /// `c·(1−β)·Σq·ρ·c_p·(T_return − T_supply)` where `c` is the CRAH
    /// capacity fraction (only the conditioned share of the return air
    /// is cooled). Equals the total injected rack power exactly at
    /// steady state for any capacity `c > 0` — a derated CRAH still
    /// removes everything, it just needs a hotter return to do it.
    #[must_use]
    pub fn crah_heat_removed(&self) -> Watts {
        let q_cooled =
            self.crah_capacity * (1.0 - self.recirculation) * self.total_tile_flow().value();
        let dt = self.return_temperature().degrees() - self.supply_temperature().degrees();
        Watts::new(q_cooled * AIR_DENSITY * AIR_SPECIFIC_HEAT * dt)
    }

    /// Total power currently injected across all hot aisles.
    #[must_use]
    pub fn total_rack_power(&self) -> Watts {
        self.net.total_power()
    }

    /// Advances the air volumes by `dt` (backward Euler through the
    /// cached solver; flows rarely change, so the factorization is
    /// sticky).
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn step(&mut self, dt: SimDuration) -> Result<(), ThermalError> {
        self.solver.step(&self.net, &mut self.state, dt)
    }

    /// Replaces the state with the steady-state solution for the
    /// current powers, flows and supply temperature.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when the system cannot
    /// be solved. With a healthy (or merely derated) CRAH that never
    /// happens — every volume sits on a flow path from the supply
    /// boundary — but a full outage
    /// ([`set_crah_capacity(0.0)`](Self::set_crah_capacity)) detaches
    /// the boundary, the room becomes a closed loop with net heat
    /// injection and *has no steady state*; the error is returned
    /// eagerly (and deterministically for every backend) rather than
    /// from a numerically singular factorization.
    pub fn solve_steady(&mut self) -> Result<(), ThermalError> {
        if self.crah_capacity == 0.0 {
            return Err(ThermalError::SingularSystem);
        }
        self.state = self.net.steady_state()?;
        Ok(())
    }

    /// Previews the steady-state per-rack cold-aisle temperatures the
    /// room would settle at under a candidate CRAH supply set-point,
    /// **without disturbing the live trajectory** — the cheap what-if
    /// hook receding-horizon set-point controllers iterate over.
    ///
    /// The candidate boundary is pinned, the steady system is solved
    /// through the cached `G` factorization (boundary changes never
    /// invalidate it — only flow changes do, so a controller sweeping
    /// `N` candidates pays one factorization and `N`
    /// back-substitutions), and the original set-point is restored
    /// bit-exactly. `cold_aisles` is cleared and refilled with one
    /// entry per rack; the returned value is the previewed mixed
    /// return temperature at the CRAH intake.
    ///
    /// Current rack powers and tile flows are held as-is, so the
    /// preview answers "where do the inlets end up if I only move the
    /// set-point" — leakage feedback on rack power is the caller's
    /// model to apply on top.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidRoom`] for a non-finite
    /// candidate and propagates solver failures — in particular
    /// [`ThermalError::SingularSystem`] during a full CRAH outage,
    /// when no steady state exists under *any* candidate supply (the
    /// signal set-point controllers use to drop into their max-cooling
    /// safe mode).
    pub fn preview_supply(
        &mut self,
        supply: Celsius,
        cold_aisles: &mut Vec<Celsius>,
    ) -> Result<Celsius, ThermalError> {
        if !supply.degrees().is_finite() {
            return Err(ThermalError::InvalidRoom {
                what: "supply temperature must be finite",
            });
        }
        if self.crah_capacity == 0.0 {
            return Err(ThermalError::SingularSystem);
        }
        let saved = self.supply_temperature();
        self.net.set_boundary(self.supply_node, supply)?;
        let solved = self.solver.steady_state_into(&self.net, &mut self.preview);
        // Restore before error handling so a solver failure can never
        // leave the candidate pinned on the live network.
        self.net.set_boundary(self.supply_node, saved)?;
        solved?;
        cold_aisles.clear();
        cold_aisles.extend(
            self.racks
                .iter()
                .map(|nodes| self.net.temperature(&self.preview, nodes.cold)),
        );
        Ok(self.net.temperature(&self.preview, self.ret))
    }

    fn rack_nodes(&self, rack: usize) -> Result<RackNodes, ThermalError> {
        self.racks
            .get(rack)
            .copied()
            .ok_or(ThermalError::InvalidRoom {
                what: "rack index out of range",
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn powered(racks: usize, beta: f64) -> RoomAirModel {
        let spec = RoomAirSpec::uniform(
            racks,
            Celsius::new(18.0),
            AirFlow::new(3.0 * racks as f64),
            beta,
        );
        let mut room = RoomAirModel::new(spec).unwrap();
        for r in 0..racks {
            room.set_rack_power(r, Watts::new(10_000.0 + 1_000.0 * r as f64))
                .unwrap();
        }
        room
    }

    #[test]
    fn spec_validation() {
        assert!(matches!(
            RoomAirModel::new(RoomAirSpec::uniform(
                0,
                Celsius::new(18.0),
                AirFlow::new(1.0),
                0.0
            )),
            Err(ThermalError::InvalidRoom { .. })
        ));
        assert!(matches!(
            RoomAirModel::new(RoomAirSpec::uniform(
                2,
                Celsius::new(18.0),
                AirFlow::new(1.0),
                1.0
            )),
            Err(ThermalError::InvalidRoom { .. })
        ));
        assert!(matches!(
            RoomAirModel::new(RoomAirSpec::uniform(
                2,
                Celsius::new(18.0),
                AirFlow::new(0.0),
                0.2
            )),
            Err(ThermalError::InvalidRoom { .. })
        ));
        let mut bad = RoomAirSpec::uniform(2, Celsius::new(18.0), AirFlow::new(4.0), 0.2);
        bad.tile_flows.pop();
        assert!(matches!(
            RoomAirModel::new(bad),
            Err(ThermalError::InvalidRoom { .. })
        ));
        let mut room = powered(2, 0.1);
        assert!(room.set_rack_power(9, Watts::new(1.0)).is_err());
        assert!(room.set_tile_flow(0, AirFlow::new(-1.0)).is_err());
        assert!(room.tile_flow(9).is_err());
    }

    #[test]
    fn steady_state_conserves_energy_exactly() {
        // CRAH extraction must equal total rack power at steady state,
        // for any recirculation fraction and any (uneven) tile split.
        for beta in [0.0, 0.15, 0.45] {
            let mut room = powered(5, beta);
            // Uneven tile split.
            room.set_tile_flow(0, AirFlow::new(1.2)).unwrap();
            room.set_tile_flow(4, AirFlow::new(5.5)).unwrap();
            room.solve_steady().unwrap();
            let total = room.total_rack_power().value();
            let removed = room.crah_heat_removed().value();
            assert!(
                ((removed - total) / total).abs() < 1e-9,
                "beta {beta}: CRAH {removed} W vs racks {total} W"
            );
        }
    }

    #[test]
    fn recirculation_warms_the_cold_aisle() {
        let mut sealed = powered(3, 0.0);
        let mut leaky = powered(3, 0.3);
        sealed.solve_steady().unwrap();
        leaky.solve_steady().unwrap();
        // Perfect containment: cold aisle sits at the supply.
        assert!((sealed.cold_aisle_temperature(0).degrees() - 18.0).abs() < 1e-9);
        // Analytic inlet lift: β/(1−β) · P/(q·ρ·c_p).
        let want = 18.0 + (0.3 / 0.7) * 10_000.0 / (3.0 * AIR_DENSITY * AIR_SPECIFIC_HEAT);
        let got = leaky.cold_aisle_temperature(0).degrees();
        assert!(
            (got - want).abs() < 1e-6,
            "30% recirculation inlet lift: got {got}, want {want}"
        );
        // The hot aisle is warmer than the cold aisle either way.
        for room in [&sealed, &leaky] {
            assert!(room.hot_aisle_temperature(1) > room.cold_aisle_temperature(1));
        }
    }

    #[test]
    fn starved_tile_runs_hotter() {
        let mut room = powered(3, 0.1);
        room.set_tile_flow(1, AirFlow::new(1.0)).unwrap();
        room.solve_steady().unwrap();
        assert!(
            room.hot_aisle_temperature(1).degrees() > room.hot_aisle_temperature(0).degrees() + 2.0,
            "a third of the airflow must show as a hotter exhaust"
        );
        // Recirculation couples the starved exhaust back to its inlet.
        assert!(room.cold_aisle_temperature(1) > room.cold_aisle_temperature(0));
    }

    #[test]
    fn supply_setpoint_shifts_every_aisle() {
        let mut cool = powered(2, 0.2);
        let mut warm = powered(2, 0.2);
        warm.set_supply(Celsius::new(27.0)).unwrap();
        cool.solve_steady().unwrap();
        warm.solve_steady().unwrap();
        for r in 0..2 {
            let lift =
                warm.cold_aisle_temperature(r).degrees() - cool.cold_aisle_temperature(r).degrees();
            assert!((lift - 9.0).abs() < 1e-6, "supply lift must pass through");
        }
        assert_eq!(warm.supply_temperature(), Celsius::new(27.0));
    }

    #[test]
    fn transient_approaches_steady_state() {
        let mut transient = powered(4, 0.25);
        let mut steady = transient.clone();
        steady.solve_steady().unwrap();
        for _ in 0..4_000 {
            transient.step(SimDuration::from_secs(1)).unwrap();
        }
        for r in 0..4 {
            let got = transient.hot_aisle_temperature(r).degrees();
            let want = steady.hot_aisle_temperature(r).degrees();
            assert!((got - want).abs() < 1e-6, "rack {r}: {got} vs {want}");
        }
        assert!(transient.plenum_temperature().degrees() < 18.0 + 1e-6);
        assert!(transient.return_temperature() > transient.plenum_temperature());
    }

    #[test]
    fn preview_supply_matches_committed_steady_state() {
        let mut room = powered(3, 0.2);
        room.set_tile_flow(2, AirFlow::new(1.5)).unwrap();
        // Step a while so the live trajectory is mid-transient.
        for _ in 0..50 {
            room.step(SimDuration::from_secs(1)).unwrap();
        }
        let live_before: Vec<u64> = (0..3)
            .map(|r| room.cold_aisle_temperature(r).degrees().to_bits())
            .collect();
        let supply_before = room.supply_temperature();

        let mut previewed = Vec::new();
        let ret = room
            .preview_supply(Celsius::new(24.0), &mut previewed)
            .unwrap();
        // The live state and set-point are untouched, bit-for-bit.
        assert_eq!(room.supply_temperature(), supply_before);
        let live_after: Vec<u64> = (0..3)
            .map(|r| room.cold_aisle_temperature(r).degrees().to_bits())
            .collect();
        assert_eq!(live_after, live_before);

        // Committing the candidate and solving steady lands exactly
        // where the preview said.
        room.set_supply(Celsius::new(24.0)).unwrap();
        room.solve_steady().unwrap();
        for (r, want) in previewed.iter().enumerate() {
            let got = room.cold_aisle_temperature(r).degrees();
            let want = want.degrees();
            assert!((got - want).abs() < 1e-9, "rack {r}: {got} vs {want}");
        }
        assert!((ret.degrees() - room.return_temperature().degrees()).abs() < 1e-9);
        // Rejects nonsense candidates without touching anything.
        assert!(room
            .preview_supply(Celsius::new(f64::NAN), &mut previewed)
            .is_err());
    }

    #[test]
    fn preview_supply_lift_passes_through() {
        // At steady state a supply lift passes 1:1 into every cold
        // aisle regardless of recirculation — the linear-response fact
        // set-point controllers lean on.
        let mut room = powered(2, 0.3);
        room.solve_steady().unwrap();
        let mut previewed = Vec::new();
        room.preview_supply(Celsius::new(25.0), &mut previewed)
            .unwrap();
        for (r, p) in previewed.iter().enumerate() {
            let lift = p.degrees() - room.cold_aisle_temperature(r).degrees();
            assert!((lift - 7.0).abs() < 1e-9, "rack {r} lift {lift}");
        }
    }

    #[test]
    fn derated_crah_runs_hotter_but_still_conserves_energy() {
        let mut healthy = powered(3, 0.2);
        let mut derated = powered(3, 0.2);
        derated.set_crah_capacity(0.5).unwrap();
        assert!((derated.crah_capacity() - 0.5).abs() < 1e-15);
        healthy.solve_steady().unwrap();
        derated.solve_steady().unwrap();
        // A derated CRAH still removes every injected watt at steady
        // state — it just needs a hotter return to do it.
        let total = derated.total_rack_power().value();
        let removed = derated.crah_heat_removed().value();
        assert!(
            ((removed - total) / total).abs() < 1e-9,
            "derated CRAH {removed} W vs racks {total} W"
        );
        assert!(
            derated.return_temperature().degrees() > healthy.return_temperature().degrees() + 1.0,
            "half capacity must show as a hotter return"
        );
        assert!(derated.cold_aisle_temperature(0) > healthy.cold_aisle_temperature(0));
        // Out-of-range capacities are rejected.
        assert!(derated.set_crah_capacity(1.5).is_err());
        assert!(derated.set_crah_capacity(f64::NAN).is_err());
    }

    #[test]
    fn full_outage_has_no_steady_state_but_keeps_stepping() {
        let mut room = powered(2, 0.1);
        room.solve_steady().unwrap();
        let before = room.return_temperature();
        room.set_crah_capacity(0.0).unwrap();
        assert!(matches!(
            room.solve_steady(),
            Err(ThermalError::SingularSystem)
        ));
        let mut scratch = Vec::new();
        assert!(matches!(
            room.preview_supply(Celsius::new(14.0), &mut scratch),
            Err(ThermalError::SingularSystem)
        ));
        // Transient integration survives the detached boundary: the
        // room is a closed loop heating up.
        for _ in 0..120 {
            room.step(SimDuration::from_secs(1)).unwrap();
        }
        assert!(room.state().is_finite());
        assert!(
            room.return_temperature().degrees() > before.degrees() + 1.0,
            "an uncooled room must heat up"
        );
        // Recovery restores the exact pre-fault flow values.
        room.set_crah_capacity(1.0).unwrap();
        room.solve_steady().unwrap();
        let total = room.total_rack_power().value();
        let removed = room.crah_heat_removed().value();
        assert!(((removed - total) / total).abs() < 1e-9);
    }

    #[test]
    fn tile_blockage_scales_the_live_flow_and_clears_exactly() {
        let mut room = powered(3, 0.1);
        let commanded = room.tile_flow(1).unwrap();
        let flows_before: Vec<u64> = (0..3)
            .map(|r| room.tile_flow(r).unwrap().value().to_bits())
            .collect();
        room.set_tile_blockage(1, 0.5).unwrap();
        assert!((room.tile_blockage(1).unwrap() - 0.5).abs() < 1e-15);
        assert!((room.tile_flow(1).unwrap().value() - commanded.value() * 0.5).abs() < 1e-12);
        assert_eq!(room.commanded_tile_flow(1).unwrap(), commanded);
        // Re-commanding under blockage keeps the derate applied.
        room.set_tile_flow(1, AirFlow::new(4.0)).unwrap();
        assert!((room.tile_flow(1).unwrap().value() - 2.0).abs() < 1e-12);
        room.set_tile_flow(1, commanded).unwrap();
        // A starved rack runs hotter than its neighbours.
        room.solve_steady().unwrap();
        assert!(room.hot_aisle_temperature(1) > room.hot_aisle_temperature(0));
        // Clearing the blockage restores the exact pre-fault flows.
        room.set_tile_blockage(1, 0.0).unwrap();
        let flows_after: Vec<u64> = (0..3)
            .map(|r| room.tile_flow(r).unwrap().value().to_bits())
            .collect();
        assert_eq!(flows_after, flows_before);
        assert!(room.set_tile_blockage(9, 0.1).is_err());
        assert!(room.set_tile_blockage(0, 1.5).is_err());
        assert!(room.tile_blockage(9).is_err());
        assert!(room.commanded_tile_flow(9).is_err());
    }

    #[test]
    fn large_rooms_go_sparse() {
        let room = powered(64, 0.1);
        assert_eq!(room.network().state_count(), 2 * 64 + 2);
        assert!(room.is_sparse(), "130 nodes must select the CSR backend");
        let small = powered(4, 0.1);
        assert!(!small.is_sparse(), "10 nodes stay dense");
        assert_eq!(small.racks(), 4);
        assert!(small.state().is_finite());
        assert!((small.recirculation() - 0.1).abs() < 1e-15);
    }

    /// The room's CSR factor stays O(n): with the hubs eliminated last,
    /// each aisle row fills only against the plenum and the return.
    #[test]
    fn room_lu_factor_stays_linear() {
        use crate::sparse::{CsrLuSymbolic, CsrMatrix};
        for side in [8, 16] {
            for beta in [0.0, 0.15] {
                let room = powered(side * side, beta);
                let net = room.network();
                let n = net.state_count();
                let g = CsrMatrix::from_adjacency(n, &net.slot_adjacency());
                let nnz = CsrLuSymbolic::analyze(&g).factor_nnz();
                assert!(
                    nnz <= 6 * n,
                    "{side}x{side} room, beta {beta}: LU nnz {nnz} > 6 * {n} nodes"
                );
            }
        }
    }
}
