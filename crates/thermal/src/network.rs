//! Thermal network construction and state.

use std::sync::atomic::{AtomicU64, Ordering};

use leakctl_units::{AirFlow, Celsius, ThermalCapacitance, ThermalConductance, Watts};

use crate::convection::ConvectionModel;
use crate::error::ThermalError;
use crate::linalg::Matrix;
use crate::{AIR_DENSITY, AIR_SPECIFIC_HEAT};

/// Identifier of a node inside a [`ThermalNetwork`].
///
/// Only meaningful for the network whose builder produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct NodeId(pub(crate) usize);

/// Identifier of an air-flow channel inside a [`ThermalNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct FlowChannelId(pub(crate) usize);

/// A heat-exchange path between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Coupling {
    /// Fixed conduction path with the given conductance (W/K).
    Conductance(ThermalConductance),
    /// Surface-to-air convection whose conductance follows the flow in
    /// `channel` through `model`.
    Convective {
        /// The air-flow channel whose flow drives the conductance.
        channel: FlowChannelId,
        /// Flow-to-conductance correlation.
        model: ConvectionModel,
    },
    /// Bulk air transport (directed only): conductance `fraction·ṁ·c_p`
    /// where `ṁ` is the mass flow in `channel`. The downstream node is
    /// pulled toward the upstream temperature; the upstream node is
    /// unaffected, as the air it lost is replaced from further upstream.
    Advective {
        /// The air-flow channel carrying the stream.
        channel: FlowChannelId,
        /// Fraction of the channel's flow passing through this edge.
        fraction: f64,
    },
}

#[derive(Debug, Clone)]
enum NodeKind {
    Capacitive { capacitance: f64, slot: usize },
    Boundary { temp: f64 },
}

#[derive(Debug, Clone)]
struct NodeData {
    name: String,
    kind: NodeKind,
}

#[derive(Debug, Clone)]
struct Edge {
    a: usize,
    b: usize,
    coupling: Coupling,
    directed: bool,
}

impl Edge {
    /// The effective conductance given the current channel flows.
    fn conductance(&self, channels: &[Channel]) -> f64 {
        match self.coupling {
            Coupling::Conductance(g) => g.value(),
            Coupling::Convective { channel, model } => model
                .conductance(AirFlow::new(channels[channel.0].flow))
                .value(),
            Coupling::Advective { channel, fraction } => {
                let q = channels[channel.0].flow;
                fraction * q * AIR_DENSITY * AIR_SPECIFIC_HEAT
            }
        }
    }
}

/// One boundary term of the source vector: capacitive slot `slot`
/// receives `g · T(node)` from boundary node `node` through edge `edge`,
/// whose conductance at the current flows is `g` (the term is inert
/// while `g ≤ 0`, as assembly skips such edges).
#[derive(Debug, Clone, Copy)]
struct BoundaryTerm {
    slot: usize,
    node: usize,
    edge: usize,
    g: f64,
}

#[derive(Debug, Clone)]
struct Channel {
    #[allow(dead_code)] // retained for diagnostics / future reporting
    name: String,
    flow: f64, // m³/s
}

/// Process-wide generation source for cache invalidation.
///
/// Every mutation of any network draws a fresh value, so two networks
/// (e.g. a network and its clone, mutated independently) can never
/// reuse the same generation number — a [`TransientSolver`]
/// (crate::TransientSolver) keyed on stale generations therefore cannot
/// collide with a different input set.
///
/// To keep per-mutation cost off the atomic (a fleet refreshing
/// hundreds of die powers per step would otherwise serialize on it),
/// each network leases a private *block* of generations at a time
/// ([`GenLease`]) and mints from it locally; the atomic is touched once
/// per [`GEN_BLOCK`] mutations. Uniqueness is preserved because blocks
/// are disjoint and a lease is never shared: cloning a network
/// explicitly drops the lease, forcing the clone onto a fresh block.
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// Generations leased from [`GENERATION`] per refill.
const GEN_BLOCK: u64 = 1024;

fn next_generation() -> u64 {
    GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// A network's private allotment of generation numbers.
#[derive(Debug)]
struct GenLease {
    next: u64,
    remaining: u64,
}

impl GenLease {
    const fn empty() -> Self {
        Self {
            next: 0,
            remaining: 0,
        }
    }

    /// Mints a process-unique, per-network-monotone generation.
    fn mint(&mut self) -> u64 {
        if self.remaining == 0 {
            self.next = GENERATION.fetch_add(GEN_BLOCK, Ordering::Relaxed);
            self.remaining = GEN_BLOCK;
        }
        let g = self.next;
        self.next += 1;
        self.remaining -= 1;
        g
    }
}

impl Clone for GenLease {
    /// A lease is exclusive: the clone starts empty and refills from
    /// its own block, so a network and its clone can never mint the
    /// same generation.
    fn clone(&self) -> Self {
        Self::empty()
    }
}

/// Incrementally builds a [`ThermalNetwork`].
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Default)]
pub struct ThermalNetworkBuilder {
    nodes: Vec<NodeData>,
    edges: Vec<Edge>,
    channels: Vec<Channel>,
    slots: usize,
}

impl ThermalNetworkBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a capacitive (state-carrying) node.
    pub fn add_node(&mut self, name: &str, capacitance: ThermalCapacitance) -> NodeId {
        let slot = self.slots;
        self.slots += 1;
        self.nodes.push(NodeData {
            name: name.to_owned(),
            kind: NodeKind::Capacitive {
                capacitance: capacitance.value(),
                slot,
            },
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a fixed-temperature boundary node (e.g. the ambient).
    pub fn add_boundary(&mut self, name: &str, temp: Celsius) -> NodeId {
        self.nodes.push(NodeData {
            name: name.to_owned(),
            kind: NodeKind::Boundary {
                temp: temp.degrees(),
            },
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Declares an air-flow channel; its flow is set at runtime through
    /// [`ThermalNetwork::set_flow`].
    pub fn add_flow_channel(&mut self, name: &str) -> FlowChannelId {
        self.channels.push(Channel {
            name: name.to_owned(),
            flow: 0.0,
        });
        FlowChannelId(self.channels.len() - 1)
    }

    /// Connects two nodes with a *symmetric* coupling (heat lost by one
    /// side is gained by the other).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidCoupling`] for an [`Coupling::Advective`]
    /// coupling (inherently directed — use [`Self::connect_directed`]),
    /// for non-positive conductances, and for node/channel ids that do
    /// not belong to this builder.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        coupling: Coupling,
    ) -> Result<(), ThermalError> {
        if matches!(coupling, Coupling::Advective { .. }) {
            return Err(ThermalError::InvalidCoupling {
                what: "advective couplings are directed; use connect_directed",
            });
        }
        self.validate_edge(a, b, &coupling)?;
        self.edges.push(Edge {
            a: a.0,
            b: b.0,
            coupling,
            directed: false,
        });
        Ok(())
    }

    /// Connects `from → to` with a *directed* coupling: only `to` is
    /// affected. Intended for [`Coupling::Advective`] air-transport
    /// edges.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidCoupling`] when `to` is a boundary
    /// node (a directed edge into a boundary does nothing) or for invalid
    /// parameters, and [`ThermalError::UnknownNode`]/[`ThermalError::UnknownChannel`]
    /// for foreign ids.
    pub fn connect_directed(
        &mut self,
        from: NodeId,
        to: NodeId,
        coupling: Coupling,
    ) -> Result<(), ThermalError> {
        self.validate_edge(from, to, &coupling)?;
        let to_node = &self.nodes[to.0];
        if matches!(to_node.kind, NodeKind::Boundary { .. }) {
            return Err(ThermalError::InvalidCoupling {
                what: "directed edge into a boundary node has no effect",
            });
        }
        self.edges.push(Edge {
            a: from.0,
            b: to.0,
            coupling,
            directed: true,
        });
        Ok(())
    }

    fn validate_edge(&self, a: NodeId, b: NodeId, coupling: &Coupling) -> Result<(), ThermalError> {
        for id in [a, b] {
            if id.0 >= self.nodes.len() {
                return Err(ThermalError::UnknownNode { index: id.0 });
            }
        }
        if a.0 == b.0 {
            return Err(ThermalError::InvalidCoupling {
                what: "self-loop edges are not allowed",
            });
        }
        match coupling {
            Coupling::Conductance(g) => {
                if !(g.value() > 0.0 && g.is_finite()) {
                    return Err(ThermalError::InvalidCoupling {
                        what: "conductance must be positive and finite",
                    });
                }
            }
            Coupling::Convective { channel, .. } => {
                if channel.0 >= self.channels.len() {
                    return Err(ThermalError::UnknownChannel { index: channel.0 });
                }
            }
            Coupling::Advective { channel, fraction } => {
                if channel.0 >= self.channels.len() {
                    return Err(ThermalError::UnknownChannel { index: channel.0 });
                }
                if !(*fraction > 0.0 && fraction.is_finite() && *fraction <= 1.0) {
                    return Err(ThermalError::InvalidCoupling {
                        what: "advective fraction must be in (0, 1]",
                    });
                }
            }
        }
        Ok(())
    }

    /// Finalizes the network.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::NoCapacitiveNodes`] when the network holds
    /// no state, or [`ThermalError::InvalidCapacitance`] when a node has
    /// a non-positive heat capacity.
    pub fn build(self) -> Result<ThermalNetwork, ThermalError> {
        if self.slots == 0 {
            return Err(ThermalError::NoCapacitiveNodes);
        }
        let mut slot_to_node = vec![0usize; self.slots];
        for (idx, node) in self.nodes.iter().enumerate() {
            if let NodeKind::Capacitive { capacitance, slot } = node.kind {
                if !(capacitance > 0.0 && capacitance.is_finite()) {
                    return Err(ThermalError::InvalidCapacitance {
                        name: node.name.clone(),
                    });
                }
                slot_to_node[slot] = idx;
            }
        }
        let powers = vec![0.0; self.nodes.len()];
        let structure_hash = structure_hash(&self.nodes, &self.edges, self.channels.len());
        let mut net = ThermalNetwork {
            nodes: self.nodes,
            edges: self.edges,
            channels: self.channels,
            powers,
            slot_to_node,
            boundary_stencil: Vec::new(),
            flow_gen: next_generation(),
            power_gen: next_generation(),
            boundary_gen: next_generation(),
            topology_id: next_generation(),
            structure_hash,
            gen_lease: GenLease::empty(),
        };
        net.build_boundary_stencil();
        Ok(net)
    }
}

/// Deterministic fingerprint of a network's *structural constants*:
/// node kinds and capacitances, edge endpoints/direction/coupling
/// parameters, and the channel count. Runtime-mutable inputs (powers,
/// flows, boundary temperatures) and cosmetic data (names) are
/// excluded, so two networks built through the same sequence of builder
/// calls share the hash even when their runtime inputs have diverged —
/// the property the batch solver needs to share one factorization
/// across a fleet of independently built, identically configured
/// servers.
fn structure_hash(nodes: &[NodeData], edges: &[Edge], channel_count: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        // FNV-1a over 64-bit words.
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    mix(nodes.len() as u64);
    mix(channel_count as u64);
    for node in nodes {
        match node.kind {
            NodeKind::Capacitive { capacitance, slot } => {
                mix(1);
                mix(capacitance.to_bits());
                mix(slot as u64);
            }
            NodeKind::Boundary { .. } => mix(2),
        }
    }
    mix(edges.len() as u64);
    for edge in edges {
        mix(edge.a as u64);
        mix(edge.b as u64);
        mix(u64::from(edge.directed));
        match edge.coupling {
            Coupling::Conductance(g) => {
                mix(3);
                mix(g.value().to_bits());
            }
            Coupling::Convective { channel, model } => {
                mix(4);
                mix(channel.0 as u64);
                for bits in model.param_bits() {
                    mix(bits);
                }
            }
            Coupling::Advective { channel, fraction } => {
                mix(5);
                mix(channel.0 as u64);
                mix(fraction.to_bits());
            }
        }
    }
    h
}

/// The temperature state of a network's capacitive nodes.
///
/// Obtained from [`ThermalNetwork::uniform_state`] or
/// [`ThermalNetwork::steady_state`]; read through
/// [`ThermalNetwork::temperature`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ThermalState {
    pub(crate) temps: Vec<f64>,
}

impl ThermalState {
    /// Number of capacitive nodes in the state.
    #[must_use]
    pub fn len(&self) -> usize {
        self.temps.len()
    }

    /// `true` when the state is empty (never the case for a built
    /// network).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.temps.is_empty()
    }

    /// The hottest capacitive node temperature.
    #[must_use]
    pub fn max_temperature(&self) -> Celsius {
        Celsius::new(self.temps.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    }

    /// `true` when every temperature is finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.temps.iter().all(|t| t.is_finite())
    }

    /// The raw per-slot temperatures, in slot order (°C) — read slots
    /// through [`ThermalNetwork::temperature`] for node-id access;
    /// batch consumers and equivalence tests use this direct view.
    #[must_use]
    pub fn temperatures(&self) -> &[f64] {
        &self.temps
    }
}

/// A lumped RC thermal network with runtime-settable power injections,
/// boundary temperatures and channel air flows.
#[derive(Debug, Clone)]
pub struct ThermalNetwork {
    nodes: Vec<NodeData>,
    edges: Vec<Edge>,
    channels: Vec<Channel>,
    powers: Vec<f64>,
    slot_to_node: Vec<usize>,
    // Every capacitive ← boundary term of the source vector, in assembly
    // order. Conductances depend on flows alone, so the terms' `g` are
    // refreshed only when a flow changes; boundary temperatures are read
    // live.
    boundary_stencil: Vec<BoundaryTerm>,
    // Cache-invalidation generations (see `GENERATION`): bumped only
    // when the corresponding input actually changes value, so constant
    // stretches keep cached assemblies and factorizations alive.
    flow_gen: u64,
    power_gen: u64,
    boundary_gen: u64,
    // Structural identity: assigned once at build, shared by clones
    // (their topology is identical), never bumped — lets a solver
    // reject networks it was not built for.
    topology_id: u64,
    // Structural fingerprint shared by *identically built* networks
    // (see `structure_hash`); unlike `topology_id` it does not
    // distinguish separate builds of the same topology, which is what
    // lets a batch solver pool independently constructed servers.
    structure_hash: u64,
    // Private generation allotment (see `GENERATION`); intentionally
    // reset by `Clone`.
    gen_lease: GenLease,
}

impl ThermalNetwork {
    /// Number of nodes (capacitive + boundary).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of capacitive (state-carrying) nodes.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.slot_to_node.len()
    }

    /// The name given to `node` at construction.
    ///
    /// # Panics
    ///
    /// Panics for a foreign node id.
    #[must_use]
    pub fn name(&self, node: NodeId) -> &str {
        &self.nodes[node.0].name
    }

    /// `true` when `node` is a fixed-temperature boundary.
    ///
    /// # Panics
    ///
    /// Panics for a foreign node id.
    #[must_use]
    pub fn is_boundary(&self, node: NodeId) -> bool {
        matches!(self.nodes[node.0].kind, NodeKind::Boundary { .. })
    }

    /// Sets the heat injected into a capacitive node.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownNode`] for foreign ids and
    /// [`ThermalError::InvalidCoupling`] when targeting a boundary node.
    pub fn set_power(&mut self, node: NodeId, power: Watts) -> Result<(), ThermalError> {
        let data = self
            .nodes
            .get(node.0)
            .ok_or(ThermalError::UnknownNode { index: node.0 })?;
        if matches!(data.kind, NodeKind::Boundary { .. }) {
            return Err(ThermalError::InvalidCoupling {
                what: "cannot inject power into a boundary node",
            });
        }
        let value = power.value();
        if self.powers[node.0].to_bits() != value.to_bits() {
            self.powers[node.0] = value;
            self.power_gen = self.gen_lease.mint();
        }
        Ok(())
    }

    /// The heat currently injected into `node`.
    ///
    /// # Panics
    ///
    /// Panics for a foreign node id.
    #[must_use]
    pub fn power(&self, node: NodeId) -> Watts {
        Watts::new(self.powers[node.0])
    }

    /// Total heat injected across all nodes.
    #[must_use]
    pub fn total_power(&self) -> Watts {
        Watts::new(self.powers.iter().sum())
    }

    /// Re-pins a boundary node's temperature (e.g. ambient drift).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownNode`] for foreign ids and
    /// [`ThermalError::InvalidCoupling`] when `node` is capacitive.
    pub fn set_boundary(&mut self, node: NodeId, temp: Celsius) -> Result<(), ThermalError> {
        let data = self
            .nodes
            .get_mut(node.0)
            .ok_or(ThermalError::UnknownNode { index: node.0 })?;
        match &mut data.kind {
            NodeKind::Boundary { temp: t } => {
                let value = temp.degrees();
                if t.to_bits() != value.to_bits() {
                    *t = value;
                    self.boundary_gen = self.gen_lease.mint();
                }
                Ok(())
            }
            NodeKind::Capacitive { .. } => Err(ThermalError::InvalidCoupling {
                what: "cannot pin the temperature of a capacitive node",
            }),
        }
    }

    /// Sets the volumetric flow of an air channel; negative flows clamp
    /// to zero.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownChannel`] for foreign ids.
    pub fn set_flow(&mut self, channel: FlowChannelId, flow: AirFlow) -> Result<(), ThermalError> {
        let ch = self
            .channels
            .get_mut(channel.0)
            .ok_or(ThermalError::UnknownChannel { index: channel.0 })?;
        let value = flow.value().max(0.0);
        if ch.flow.to_bits() != value.to_bits() {
            ch.flow = value;
            self.flow_gen = self.gen_lease.mint();
            // A few terms per network: re-evaluating them all is cheaper
            // than any bookkeeping of which channel each one follows.
            for term in &mut self.boundary_stencil {
                term.g = self.edges[term.edge].conductance(&self.channels);
            }
        }
        Ok(())
    }

    /// The current flow of `channel`.
    ///
    /// # Panics
    ///
    /// Panics for a foreign channel id.
    #[must_use]
    pub fn flow(&self, channel: FlowChannelId) -> AirFlow {
        AirFlow::new(self.channels[channel.0].flow)
    }

    /// A state with every capacitive node at `temp` — the paper's
    /// "cold start after a long idle soak".
    #[must_use]
    pub fn uniform_state(&self, temp: Celsius) -> ThermalState {
        ThermalState {
            temps: vec![temp.degrees(); self.slot_to_node.len()],
        }
    }

    /// Reads the temperature of `node` (state value for capacitive
    /// nodes, pinned value for boundaries).
    ///
    /// # Panics
    ///
    /// Panics for a foreign node id or a state from another network.
    #[must_use]
    pub fn temperature(&self, state: &ThermalState, node: NodeId) -> Celsius {
        match self.nodes[node.0].kind {
            NodeKind::Capacitive { slot, .. } => Celsius::new(state.temps[slot]),
            NodeKind::Boundary { temp } => Celsius::new(temp),
        }
    }

    /// The state-vector slot of a capacitive node (`None` for boundary
    /// nodes, which carry no state). Slots index
    /// [`ThermalState::temperatures`] and the packed batch layouts —
    /// fleet engines use this to read a few slots (e.g. CPU dies) out
    /// of packed storage without unpacking whole states.
    ///
    /// # Panics
    ///
    /// Panics for a foreign node id.
    #[must_use]
    pub fn state_slot(&self, node: NodeId) -> Option<usize> {
        match self.nodes[node.0].kind {
            NodeKind::Capacitive { slot, .. } => Some(slot),
            NodeKind::Boundary { .. } => None,
        }
    }

    /// Structural identity assigned at build; clones share it, separate
    /// builds never do.
    pub(crate) fn topology_id(&self) -> u64 {
        self.topology_id
    }

    /// Structural fingerprint over node kinds/capacitances, edges and
    /// coupling parameters (runtime inputs and names excluded).
    /// Identically built networks share it even across separate builds —
    /// the compatibility key for [`BatchSolver`](crate::BatchSolver).
    #[must_use]
    pub fn structure_hash(&self) -> u64 {
        self.structure_hash
    }

    /// Appends the bit pattern of every channel flow, in channel order —
    /// the value-level part of a shared-factorization key: two
    /// structurally identical networks with equal flow signatures
    /// assemble the exact same conductance matrix.
    pub(crate) fn flow_signature_into(&self, out: &mut Vec<u64>) {
        out.extend(self.channels.iter().map(|ch| ch.flow.to_bits()));
    }

    /// Generation of the last real flow change (conductance matrix `G`
    /// and the boundary source both depend on flows).
    pub(crate) fn flow_generation(&self) -> u64 {
        self.flow_gen
    }

    /// Generation of the last real power change (affects the source
    /// vector only).
    pub(crate) fn power_generation(&self) -> u64 {
        self.power_gen
    }

    /// Generation of the last real boundary-temperature change (affects
    /// the source vector only).
    pub(crate) fn boundary_generation(&self) -> u64 {
        self.boundary_gen
    }

    /// Writes the per-slot capacitances into `c` (fixed after build).
    pub(crate) fn capacitances_into(&self, c: &mut [f64]) {
        for (&node_idx, cs) in self.slot_to_node.iter().zip(c.iter_mut()) {
            if let NodeKind::Capacitive { capacitance, .. } = self.nodes[node_idx].kind {
                *cs = capacitance;
            }
        }
    }

    /// Writes the power-injection part of the source vector into
    /// `s_power` (invalidated by [`Self::set_power`]).
    pub(crate) fn assemble_power_into(&self, s_power: &mut [f64]) {
        for (&node_idx, sp) in self.slot_to_node.iter().zip(s_power.iter_mut()) {
            *sp = self.powers[node_idx];
        }
    }

    /// Writes the flow-dependent conductance matrix `G` and the
    /// boundary-coupling part of the source vector into the given
    /// buffers (invalidated by [`Self::set_flow`] and
    /// [`Self::set_boundary`]).
    ///
    /// # Panics
    ///
    /// Panics when the buffers are not sized `state_count()`.
    pub(crate) fn assemble_conductance_into(&self, g_mat: &mut Matrix, s_bound: &mut [f64]) {
        assert!(
            g_mat.rows() == s_bound.len() && g_mat.cols() == s_bound.len(),
            "assembly buffers must match the network dimension"
        );
        g_mat.fill(0.0);
        self.assemble_conductance_with(&mut |r, c, v| g_mat.add_to(r, c, v), s_bound);
    }

    /// Generic-sink counterpart of [`Self::assemble_conductance_into`]:
    /// streams the conductance-matrix contributions `(row, col, +=v)` to
    /// `add` (the caller provides storage — dense or CSR) and writes the
    /// boundary-coupling source into `s_bound`. Both the edge order and
    /// the accumulation order are identical to the dense path, so any
    /// storage that accumulates exactly reproduces its values.
    pub(crate) fn assemble_conductance_with(
        &self,
        add: &mut impl FnMut(usize, usize, f64),
        s_bound: &mut [f64],
    ) {
        s_bound.fill(0.0);
        self.walk_couplings(
            |edge| edge.conductance(&self.channels),
            |_, g, rs, other| {
                add(rs, rs, g);
                match self.nodes[other].kind {
                    NodeKind::Capacitive { slot: os, .. } => add(rs, os, -g),
                    NodeKind::Boundary { temp } => s_bound[rs] += g * temp,
                }
            },
        );
    }

    /// Writes only the boundary-coupling source vector into `s_bound`,
    /// skipping matrix assembly. Replays the boundary stencil, which
    /// holds the same products in the same accumulation order as
    /// `assemble_conductance_with`, so the result is
    /// bit-identical to the `s_bound` a full assembly would produce:
    /// the one boundary-source column of a
    /// [`BatchSolver::kernel`](crate::BatchSolver::kernel) whose lanes
    /// all sit on this network's boundary temperatures.
    ///
    /// # Panics
    ///
    /// Panics when `s_bound` is shorter than the state count.
    pub fn assemble_boundary_source_into(&self, s_bound: &mut [f64]) {
        self.replay_boundary_stencil(s_bound, None);
    }

    /// One boundary-source column per temperature of `boundary`: column
    /// `i` (`columns[i * n..(i + 1) * n]`, `n` the state count) is the
    /// boundary source a solve of this network assembles with
    /// `boundary` held at `temps[i]`, through the same stencil replay,
    /// so each column is bit-identical to the source of a network whose
    /// boundary sits at that temperature. This is how lanes on several
    /// inlets (one rack each) share one factorization.
    ///
    /// # Panics
    ///
    /// Panics when `columns` is not `temps.len()` columns long.
    pub fn assemble_boundary_sources_into(
        &self,
        boundary: NodeId,
        temps: &[Celsius],
        columns: &mut [f64],
    ) {
        let n = self.state_count();
        assert_eq!(columns.len(), temps.len() * n, "one column per temperature");
        for (column, temp) in columns.chunks_exact_mut(n.max(1)).zip(temps) {
            self.replay_boundary_stencil(column, Some((boundary.0, temp.degrees())));
        }
    }

    /// The stencil replay behind both source assemblies, with `pinned`
    /// optionally overriding one boundary node's temperature.
    fn replay_boundary_stencil(&self, s_bound: &mut [f64], pinned: Option<(usize, f64)>) {
        s_bound.fill(0.0);
        for term in &self.boundary_stencil {
            if term.g <= 0.0 {
                continue;
            }
            if let NodeKind::Boundary { temp } = self.nodes[term.node].kind {
                let temp = match pinned {
                    Some((node, pinned)) if node == term.node => pinned,
                    _ => temp,
                };
                s_bound[term.slot] += term.g * temp;
            }
        }
    }

    /// Collects every capacitive ← boundary orientation, in assembly
    /// order, with its conductance at the current flows.
    fn build_boundary_stencil(&mut self) {
        let mut stencil = Vec::new();
        // Unit weight: the term list is structural; `g` is per flow.
        self.walk_couplings(
            |_| 1.0,
            |edge, _, slot, node| {
                if matches!(self.nodes[node].kind, NodeKind::Boundary { .. }) {
                    let g = self.edges[edge].conductance(&self.channels);
                    stencil.push(BoundaryTerm {
                        slot,
                        node,
                        edge,
                        g,
                    });
                }
            },
        );
        self.boundary_stencil = stencil;
    }

    /// The one edge-orientation walk behind assembly, the boundary
    /// stencil and the adjacency. Visits edges in edge order, skipping
    /// those whose `conductance` is not positive; within an edge it
    /// calls `visit(edge index, g, receiver slot, other node)` for each
    /// orientation whose receiver is capacitive — both for a symmetric
    /// edge, only `b ← a` for a directed one (only its downstream end
    /// receives heat).
    fn walk_couplings(
        &self,
        conductance: impl Fn(&Edge) -> f64,
        mut visit: impl FnMut(usize, f64, usize, usize),
    ) {
        for (index, edge) in self.edges.iter().enumerate() {
            let g = conductance(edge);
            if g <= 0.0 {
                continue;
            }
            let ends = [(edge.a, edge.b), (edge.b, edge.a)];
            let orientations = if edge.directed { &ends[1..] } else { &ends[..] };
            for &(receiver, other) in orientations {
                if let NodeKind::Capacitive { slot, .. } = self.nodes[receiver].kind {
                    visit(index, g, slot, other);
                }
            }
        }
    }

    /// Per-slot capacitive neighbour lists (sorted, deduplicated): the
    /// structural sparsity of `G`'s off-diagonal, fixed at build time —
    /// the pattern the CSR backend stores.
    pub(crate) fn slot_adjacency(&self) -> Vec<Vec<usize>> {
        let n = self.slot_to_node.len();
        let mut nbrs: Vec<Vec<usize>> = vec![Vec::new(); n];
        // Unit weight: the sparsity is structural, whatever the flows.
        self.walk_couplings(
            |_| 1.0,
            |_, _, rs, other| {
                if let NodeKind::Capacitive { slot: os, .. } = self.nodes[other].kind {
                    nbrs[rs].push(os);
                }
            },
        );
        for row in &mut nbrs {
            row.sort_unstable();
            row.dedup();
        }
        nbrs
    }

    /// Assembles the linear system `C·dT/dt = −G·T + s` for the current
    /// inputs. Returns `(G, s, c)` with `c` the per-slot capacitances.
    ///
    /// One-shot allocating variant kept for direct solves
    /// ([`Self::steady_state`]); the stepping hot path caches the split
    /// pieces in a [`TransientSolver`](crate::TransientSolver) instead.
    pub(crate) fn assemble(&self) -> (Matrix, Vec<f64>, Vec<f64>) {
        let n = self.slot_to_node.len();
        let mut g_mat = Matrix::zeros(n, n);
        let mut s = vec![0.0; n];
        let mut s_bound = vec![0.0; n];
        let mut c = vec![0.0; n];
        self.capacitances_into(&mut c);
        self.assemble_power_into(&mut s);
        self.assemble_conductance_into(&mut g_mat, &mut s_bound);
        for (si, sb) in s.iter_mut().zip(&s_bound) {
            *si += *sb;
        }
        (g_mat, s, c)
    }

    /// Directly solves for the steady-state temperatures under the
    /// current powers, boundary temperatures and flows.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when some capacitive node
    /// has no path to a boundary.
    pub fn steady_state(&self) -> Result<ThermalState, ThermalError> {
        let (g_mat, s, _) = self.assemble();
        let temps = g_mat.solve(&s).map_err(|_| ThermalError::SingularSystem)?;
        Ok(ThermalState { temps })
    }

    /// Looks up the slot-to-node mapping (used by the solver for error
    /// reporting).
    pub(crate) fn slot_name(&self, slot: usize) -> &str {
        &self.nodes[self.slot_to_node[slot]].name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> (ThermalNetwork, NodeId, NodeId) {
        let mut b = ThermalNetworkBuilder::new();
        let die = b.add_node("die", ThermalCapacitance::new(100.0));
        let amb = b.add_boundary("ambient", Celsius::new(24.0));
        b.connect(
            die,
            amb,
            Coupling::Conductance(ThermalConductance::new(2.0)),
        )
        .unwrap();
        (b.build().unwrap(), die, amb)
    }

    #[test]
    fn steady_state_single_rc() {
        let (mut net, die, _) = simple();
        net.set_power(die, Watts::new(100.0)).unwrap();
        let ss = net.steady_state().unwrap();
        assert!((net.temperature(&ss, die).degrees() - 74.0).abs() < 1e-9);
    }

    #[test]
    fn boundary_temperature_shifts_steady_state() {
        let (mut net, die, amb) = simple();
        net.set_power(die, Watts::new(50.0)).unwrap();
        net.set_boundary(amb, Celsius::new(30.0)).unwrap();
        let ss = net.steady_state().unwrap();
        assert!((net.temperature(&ss, die).degrees() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn two_node_chain_analytic() {
        // die --g1=4-- sink --g2=2-- ambient(20), P=40 W into die.
        // T_sink = 20 + 40/2 = 40; T_die = 40 + 40/4 = 50.
        let mut b = ThermalNetworkBuilder::new();
        let die = b.add_node("die", ThermalCapacitance::new(50.0));
        let sink = b.add_node("sink", ThermalCapacitance::new(400.0));
        let amb = b.add_boundary("ambient", Celsius::new(20.0));
        b.connect(
            die,
            sink,
            Coupling::Conductance(ThermalConductance::new(4.0)),
        )
        .unwrap();
        b.connect(
            sink,
            amb,
            Coupling::Conductance(ThermalConductance::new(2.0)),
        )
        .unwrap();
        let mut net = b.build().unwrap();
        net.set_power(die, Watts::new(40.0)).unwrap();
        let ss = net.steady_state().unwrap();
        assert!((net.temperature(&ss, sink).degrees() - 40.0).abs() < 1e-9);
        assert!((net.temperature(&ss, die).degrees() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn convective_edge_responds_to_flow() {
        let mut b = ThermalNetworkBuilder::new();
        let die = b.add_node("die", ThermalCapacitance::new(100.0));
        let amb = b.add_boundary("ambient", Celsius::new(24.0));
        let ch = b.add_flow_channel("main");
        let model =
            ConvectionModel::turbulent(ThermalConductance::new(4.0), AirFlow::from_cfm(300.0));
        b.connect(die, amb, Coupling::Convective { channel: ch, model })
            .unwrap();
        let mut net = b.build().unwrap();
        net.set_power(die, Watts::new(80.0)).unwrap();

        net.set_flow(ch, AirFlow::from_cfm(150.0)).unwrap();
        let slow = net.steady_state().unwrap();
        net.set_flow(ch, AirFlow::from_cfm(600.0)).unwrap();
        let fast = net.steady_state().unwrap();
        assert!(
            net.temperature(&fast, die) < net.temperature(&slow, die),
            "more flow must cool the die"
        );
    }

    #[test]
    fn advection_heats_downstream_node() {
        // ambient →(adv) air1 →(adv) air2 ; heater convects into air1.
        let mut b = ThermalNetworkBuilder::new();
        let air1 = b.add_node("air1", ThermalCapacitance::new(10.0));
        let air2 = b.add_node("air2", ThermalCapacitance::new(10.0));
        let amb = b.add_boundary("ambient", Celsius::new(24.0));
        let ch = b.add_flow_channel("duct");
        b.connect_directed(
            amb,
            air1,
            Coupling::Advective {
                channel: ch,
                fraction: 1.0,
            },
        )
        .unwrap();
        b.connect_directed(
            air1,
            air2,
            Coupling::Advective {
                channel: ch,
                fraction: 1.0,
            },
        )
        .unwrap();
        let mut net = b.build().unwrap();
        net.set_flow(ch, AirFlow::new(0.05)).unwrap();
        net.set_power(air1, Watts::new(200.0)).unwrap();
        let ss = net.steady_state().unwrap();
        let t1 = net.temperature(&ss, air1);
        let t2 = net.temperature(&ss, air2);
        // air1 rise = P / (ṁ·cp) = 200 / (0.05·1.184·1006) ≈ 3.36 °C.
        assert!((t1.degrees() - 24.0 - 200.0 / (0.05 * 1.184 * 1006.0)).abs() < 1e-6);
        // Downstream air arrives at air1 temperature and gains nothing.
        assert!((t2.degrees() - t1.degrees()).abs() < 1e-9);
    }

    #[test]
    fn builder_rejects_symmetric_advection() {
        let mut b = ThermalNetworkBuilder::new();
        let a = b.add_node("a", ThermalCapacitance::new(1.0));
        let c = b.add_node("c", ThermalCapacitance::new(1.0));
        let ch = b.add_flow_channel("x");
        let err = b
            .connect(
                a,
                c,
                Coupling::Advective {
                    channel: ch,
                    fraction: 1.0,
                },
            )
            .unwrap_err();
        assert!(matches!(err, ThermalError::InvalidCoupling { .. }));
    }

    #[test]
    fn builder_rejects_self_loops_and_bad_values() {
        let mut b = ThermalNetworkBuilder::new();
        let a = b.add_node("a", ThermalCapacitance::new(1.0));
        let amb = b.add_boundary("amb", Celsius::new(24.0));
        assert!(b
            .connect(a, a, Coupling::Conductance(ThermalConductance::new(1.0)))
            .is_err());
        assert!(b
            .connect(a, amb, Coupling::Conductance(ThermalConductance::ZERO))
            .is_err());
        let ch = b.add_flow_channel("x");
        assert!(
            b.connect_directed(
                a,
                amb,
                Coupling::Advective {
                    channel: ch,
                    fraction: 1.0
                }
            )
            .is_err(),
            "directed into boundary is rejected"
        );
        assert!(
            b.connect_directed(
                amb,
                a,
                Coupling::Advective {
                    channel: ch,
                    fraction: 0.0
                }
            )
            .is_err(),
            "zero fraction rejected"
        );
        assert!(
            b.connect_directed(
                amb,
                a,
                Coupling::Advective {
                    channel: ch,
                    fraction: 1.5
                }
            )
            .is_err(),
            "fraction > 1 rejected"
        );
    }

    #[test]
    fn builder_rejects_foreign_ids() {
        let mut other = ThermalNetworkBuilder::new();
        let foreign = other.add_node("x", ThermalCapacitance::new(1.0));
        let foreign_far = {
            let mut big = ThermalNetworkBuilder::new();
            for i in 0..10 {
                big.add_node(&format!("n{i}"), ThermalCapacitance::new(1.0));
            }
            NodeId(9)
        };
        let mut b = ThermalNetworkBuilder::new();
        let a = b.add_node("a", ThermalCapacitance::new(1.0));
        assert!(b
            .connect(
                a,
                foreign_far,
                Coupling::Conductance(ThermalConductance::new(1.0))
            )
            .is_err());
        let _ = foreign;
    }

    #[test]
    fn build_requires_capacitive_node() {
        let mut b = ThermalNetworkBuilder::new();
        b.add_boundary("amb", Celsius::new(24.0));
        assert!(matches!(b.build(), Err(ThermalError::NoCapacitiveNodes)));
    }

    #[test]
    fn build_rejects_nonpositive_capacitance() {
        let mut b = ThermalNetworkBuilder::new();
        b.add_node("bad", ThermalCapacitance::ZERO);
        assert!(matches!(
            b.build(),
            Err(ThermalError::InvalidCapacitance { .. })
        ));
    }

    #[test]
    fn isolated_node_is_singular() {
        let mut b = ThermalNetworkBuilder::new();
        b.add_node("floating", ThermalCapacitance::new(1.0));
        let net = b.build().unwrap();
        assert!(matches!(
            net.steady_state(),
            Err(ThermalError::SingularSystem)
        ));
    }

    #[test]
    fn power_bookkeeping() {
        let (mut net, die, amb) = simple();
        assert_eq!(net.power(die), Watts::ZERO);
        net.set_power(die, Watts::new(55.0)).unwrap();
        assert_eq!(net.power(die), Watts::new(55.0));
        assert_eq!(net.total_power(), Watts::new(55.0));
        assert!(net.set_power(amb, Watts::new(1.0)).is_err());
        assert!(net.set_power(NodeId(99), Watts::new(1.0)).is_err());
    }

    #[test]
    fn node_metadata() {
        let (net, die, amb) = simple();
        assert_eq!(net.name(die), "die");
        assert!(!net.is_boundary(die));
        assert!(net.is_boundary(amb));
        assert_eq!(net.node_count(), 2);
        assert_eq!(net.state_count(), 1);
    }

    #[test]
    fn uniform_state_reads_back() {
        let (net, die, _) = simple();
        let st = net.uniform_state(Celsius::new(24.0));
        assert_eq!(net.temperature(&st, die), Celsius::new(24.0));
        assert_eq!(st.len(), 1);
        assert!(!st.is_empty());
        assert!(st.is_finite());
        assert_eq!(st.max_temperature(), Celsius::new(24.0));
    }

    #[test]
    fn set_boundary_rejects_capacitive() {
        let (mut net, die, _) = simple();
        assert!(net.set_boundary(die, Celsius::new(30.0)).is_err());
    }

    #[test]
    fn negative_flow_clamps_to_zero() {
        let mut b = ThermalNetworkBuilder::new();
        let _ = b.add_node("n", ThermalCapacitance::new(1.0));
        let ch = b.add_flow_channel("duct");
        let mut net = b.build().unwrap();
        net.set_flow(ch, AirFlow::new(-5.0)).unwrap();
        assert_eq!(net.flow(ch), AirFlow::ZERO);
        assert!(net.set_flow(FlowChannelId(4), AirFlow::ZERO).is_err());
    }

    /// Tiny deterministic generator for the randomized stencil test.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 33
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            self.next() as f64 / (1u64 << 31) as f64
        }
    }

    /// The `s_bound` a full assembly writes, for comparison with the
    /// stencil replay.
    fn full_boundary_source(net: &ThermalNetwork) -> Vec<u64> {
        let mut s = vec![0.0; net.state_count()];
        net.assemble_conductance_with(&mut |_, _, _| {}, &mut s);
        s.iter().map(|v| v.to_bits()).collect()
    }

    fn stencil_boundary_source(net: &ThermalNetwork) -> Vec<u64> {
        // Poison the buffer: the replay must overwrite every slot.
        let mut s = vec![f64::NAN; net.state_count()];
        net.assemble_boundary_source_into(&mut s);
        s.iter().map(|v| v.to_bits()).collect()
    }

    /// A random network with conductive, convective (with and without a
    /// floor, so zero flow gives `g = 0`) and directed advective edges,
    /// where slot 0 always has two boundary edges.
    fn random_network(rng: &mut Lcg) -> (ThermalNetwork, Vec<NodeId>, Vec<FlowChannelId>) {
        let mut b = ThermalNetworkBuilder::new();
        let caps: Vec<NodeId> = (0..2 + rng.below(5))
            .map(|i| b.add_node(&format!("c{i}"), ThermalCapacitance::new(1.0 + rng.unit())))
            .collect();
        let bounds: Vec<NodeId> = (0..2 + rng.below(2))
            .map(|i| b.add_boundary(&format!("b{i}"), Celsius::new(15.0 + 20.0 * rng.unit())))
            .collect();
        let channels: Vec<FlowChannelId> = (0..2)
            .map(|i| b.add_flow_channel(&format!("ch{i}")))
            .collect();
        let floorless = |rng: &mut Lcg| {
            ConvectionModel::new(
                ThermalConductance::new(0.5 + rng.unit()),
                AirFlow::new(0.02),
                0.8,
                ThermalConductance::ZERO,
            )
        };
        b.connect(
            caps[0],
            bounds[0],
            Coupling::Conductance(ThermalConductance::new(1.0 + rng.unit())),
        )
        .unwrap();
        let model = floorless(rng);
        b.connect(
            caps[0],
            bounds[1],
            Coupling::Convective {
                channel: channels[0],
                model,
            },
        )
        .unwrap();
        for _ in 0..4 + rng.below(10) {
            let to = caps[rng.below(caps.len())];
            let from = if rng.below(2) == 0 {
                bounds[rng.below(bounds.len())]
            } else {
                caps[rng.below(caps.len())]
            };
            if from == to {
                continue;
            }
            let channel = channels[rng.below(channels.len())];
            match rng.below(4) {
                0 => b
                    .connect(
                        from,
                        to,
                        Coupling::Conductance(ThermalConductance::new(0.1 + rng.unit())),
                    )
                    .unwrap(),
                1 => {
                    let model = floorless(rng);
                    b.connect(from, to, Coupling::Convective { channel, model })
                        .unwrap();
                }
                2 => {
                    let model = ConvectionModel::turbulent(
                        ThermalConductance::new(0.5 + rng.unit()),
                        AirFlow::new(0.03),
                    );
                    b.connect(to, from, Coupling::Convective { channel, model })
                        .unwrap();
                }
                _ => b
                    .connect_directed(
                        from,
                        to,
                        Coupling::Advective {
                            channel,
                            fraction: 0.1 + 0.9 * rng.unit(),
                        },
                    )
                    .unwrap(),
            }
        }
        (b.build().unwrap(), bounds, channels)
    }

    #[test]
    fn boundary_stencil_matches_full_assembly_bit_for_bit() {
        let mut rng = Lcg(0x5eed);
        let mut zero_flow_seen = false;
        for _ in 0..40 {
            let (mut net, bounds, channels) = random_network(&mut rng);
            for _ in 0..25 {
                match rng.below(3) {
                    0 => {
                        let ch = channels[rng.below(channels.len())];
                        // A third of flow changes stop the channel:
                        // its advective and floorless edges drop out.
                        let q = if rng.below(3) == 0 {
                            zero_flow_seen = true;
                            0.0
                        } else {
                            0.05 * rng.unit()
                        };
                        net.set_flow(ch, AirFlow::new(q)).unwrap();
                    }
                    1 => {
                        let node = bounds[rng.below(bounds.len())];
                        let t = Celsius::new(10.0 + 30.0 * rng.unit());
                        net.set_boundary(node, t).unwrap();
                    }
                    _ => {
                        // A clone whose flow moves while the original's
                        // does not: each keeps its own stencil.
                        let mut twin = net.clone();
                        let ch = channels[rng.below(channels.len())];
                        let q = net.flow(ch).value() + 0.01 + 0.02 * rng.unit();
                        twin.set_flow(ch, AirFlow::new(q)).unwrap();
                        twin.set_boundary(bounds[0], Celsius::new(12.5)).unwrap();
                        assert_eq!(stencil_boundary_source(&twin), full_boundary_source(&twin));
                    }
                }
                assert_eq!(stencil_boundary_source(&net), full_boundary_source(&net));
            }
        }
        assert!(zero_flow_seen, "the g <= 0 skip must be exercised");
    }

    #[test]
    fn boundary_source_columns_match_a_network_on_each_temperature() {
        let mut rng = Lcg(0xc01);
        for _ in 0..40 {
            let (mut net, bounds, channels) = random_network(&mut rng);
            let ch = channels[rng.below(channels.len())];
            net.set_flow(ch, AirFlow::new(0.05 * rng.unit())).unwrap();
            let pinned = bounds[rng.below(bounds.len())];
            let temps: Vec<Celsius> = (0..4)
                .map(|_| Celsius::new(10.0 + 30.0 * rng.unit()))
                .collect();
            let n = net.state_count();
            let mut columns = vec![f64::NAN; temps.len() * n];
            net.assemble_boundary_sources_into(pinned, &temps, &mut columns);
            for (i, &t) in temps.iter().enumerate() {
                let mut at = net.clone();
                at.set_boundary(pinned, t).unwrap();
                let got: Vec<u64> = columns[i * n..(i + 1) * n]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(got, full_boundary_source(&at), "column {i}");
            }
        }
    }
}
