//! RC thermal-network simulation for server digital twins.
//!
//! This crate models a server enclosure as a lumped *thermal RC network*:
//! capacitive nodes (CPU dies, heat sinks, DIMMs, air volumes) exchange
//! heat through couplings, with fixed-temperature boundary nodes for the
//! ambient. Three coupling kinds cover everything the `leakctl` platform
//! needs:
//!
//! - **Conductance** — a fixed conduction path (die → heat sink).
//! - **Convective** — a surface-to-air path whose conductance scales with
//!   the air flow in a named channel (`g = g_min + g_ref·(Q/Q_ref)^n`),
//!   which is how fan speed reaches the thermal model.
//! - **Advective** — a *directed* path modelling bulk air transport
//!   (`g = ṁ·c_p`): the downstream air volume is heated toward the
//!   upstream temperature, reproducing the paper's airflow order where
//!   inlet air crosses the DIMMs before it reaches the CPUs.
//!
//! The air nodes make the system stiff, so every transient steps with
//! the unconditionally stable backward-Euler method through a
//! [`TransientSolver`], which caches the assembly and the factorization
//! of `(C + h·G)` across steps. Steady states solve directly through the
//! bundled dense [`linalg`] module.
//!
//! A fleet of identical-topology servers steps through one
//! [`BatchSolver`] instead: it shares each `(dt, flow)` factorization
//! across every lane and hands out a [`SharedKernel`] that advances
//! slot-major [`PackedLanes`] blocks (split across threads by a
//! [`ShardPlan`]) from per-lane power injections, each rack's lanes
//! ([`RackSpan`]) on their own inlet's boundary source. Lanes whose fan
//! flows differ step one flow class at a time through the same kernel
//! type, and every lane stays bit-identical to its own
//! [`TransientSolver`].
//!
//! # Example
//!
//! ```
//! use leakctl_thermal::{Coupling, ThermalNetworkBuilder, TransientSolver};
//! use leakctl_units::{
//!     Celsius, SimDuration, ThermalCapacitance, ThermalConductance, Watts,
//! };
//!
//! # fn main() -> Result<(), leakctl_thermal::ThermalError> {
//! let mut b = ThermalNetworkBuilder::new();
//! let die = b.add_node("die", ThermalCapacitance::new(120.0));
//! let ambient = b.add_boundary("ambient", Celsius::new(24.0));
//! b.connect(die, ambient, Coupling::Conductance(ThermalConductance::new(2.0)));
//! let mut net = b.build()?;
//!
//! net.set_power(die, Watts::new(100.0));
//! let mut solver = TransientSolver::new(&net);
//! let mut state = net.uniform_state(Celsius::new(24.0));
//! for _ in 0..600 {
//!     solver.step(&net, &mut state, SimDuration::from_secs(1))?;
//! }
//! // Steady state: 24 °C + 100 W / 2 W/K = 74 °C.
//! assert!((net.temperature(&state, die).degrees() - 74.0).abs() < 0.5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod backend;
mod batch;
mod convection;
mod error;
pub mod linalg;
mod network;
mod plant;
mod room;
mod shard;
#[cfg(test)]
mod solver;
pub mod sparse;
mod stepper;

pub use backend::{AutoBackend, CsrBackend, DenseBackend, SolverBackend, CSR_NODE_THRESHOLD};
pub use batch::{BatchSolver, PackedLanes, Prepared, RackSpan, SharedKernel};
pub use convection::ConvectionModel;
pub use error::ThermalError;
pub use network::{
    Coupling, FlowChannelId, NodeId, ThermalNetwork, ThermalNetworkBuilder, ThermalState,
};
pub use plant::{ChilledWaterLoop, ChilledWaterSpec};
pub use room::{RoomAirModel, RoomAirSpec};
pub use shard::{group_by_structure_hash, ShardPlan, THREADS_ENV};
pub use stepper::TransientSolver;

/// A [`TransientSolver`] pinned to the dense backend (explicit choice;
/// [`TransientSolver::new`] auto-selects).
pub type DenseTransientSolver = TransientSolver<DenseBackend>;

/// A [`TransientSolver`] pinned to the CSR sparse backend.
pub type CsrTransientSolver = TransientSolver<CsrBackend>;

/// Specific heat capacity of air at constant pressure, J/(kg·K).
pub const AIR_SPECIFIC_HEAT: f64 = 1006.0;

/// Density of air at ~25 °C sea level, kg/m³.
pub const AIR_DENSITY: f64 = 1.184;
