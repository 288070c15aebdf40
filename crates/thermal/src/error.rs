//! Error type for thermal-network construction and solving.

use core::fmt;

/// Errors produced while building or solving a thermal network.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// The network has no capacitive nodes, so there is nothing to solve.
    NoCapacitiveNodes,
    /// A node id referred to a different network or out-of-range slot.
    UnknownNode {
        /// The offending index.
        index: usize,
    },
    /// A flow-channel id referred to a different network.
    UnknownChannel {
        /// The offending index.
        index: usize,
    },
    /// A coupling was created with a non-positive or non-finite value.
    InvalidCoupling {
        /// Description of the invalid parameter.
        what: &'static str,
    },
    /// The system matrix was singular — typically a capacitive node with
    /// no path (even indirect) to any boundary node.
    SingularSystem,
    /// A capacitance was non-positive.
    InvalidCapacitance {
        /// Node name.
        name: String,
    },
    /// Integration produced a non-finite temperature.
    Diverged {
        /// Name of the first offending node.
        name: String,
    },
    /// A room air-model spec was inconsistent (rack counts, tile
    /// flows, recirculation fraction out of range).
    InvalidRoom {
        /// Description of the problem.
        what: &'static str,
    },
    /// A chilled-water plant spec or fault knob was invalid
    /// (non-finite temperature, availability outside `[0, 1]`, …).
    InvalidPlant {
        /// Description of the problem.
        what: &'static str,
    },
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoCapacitiveNodes => write!(f, "network has no capacitive nodes"),
            Self::UnknownNode { index } => write!(f, "unknown node id {index}"),
            Self::UnknownChannel { index } => write!(f, "unknown flow channel id {index}"),
            Self::InvalidCoupling { what } => write!(f, "invalid coupling: {what}"),
            Self::SingularSystem => {
                write!(f, "singular thermal system (node without a boundary path?)")
            }
            Self::InvalidCapacitance { name } => {
                write!(f, "node {name} has non-positive capacitance")
            }
            Self::Diverged { name } => write!(
                f,
                "integration diverged at node {name} (reduce the step or use an implicit method)"
            ),
            Self::InvalidRoom { what } => write!(f, "invalid room spec: {what}"),
            Self::InvalidPlant { what } => write!(f, "invalid chilled-water plant: {what}"),
        }
    }
}

impl std::error::Error for ThermalError {}
