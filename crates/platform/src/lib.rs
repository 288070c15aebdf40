//! Digital-twin enterprise server for the `leakctl` reproduction.
//!
//! The paper experiments on a presently-shipping (2013) enterprise
//! server: two 16-core SPARC T3 processors, 32 DDR3 DIMMs, and six
//! chassis fans in three rows of two, rewired to external programmable
//! power supplies so fan power can be measured and controlled separately
//! from system power. This crate rebuilds that machine as a simulation:
//!
//! - [`ServerConfig`] — the calibrated machine description (topology,
//!   power-model parameters, thermal-network element values),
//! - [`CpuSocket`] / [`DimmBank`] — component power models with
//!   physics-grounded leakage,
//! - [`FanBank`] + [`FanSupply`] — fan units with finite slew served by
//!   external supplies with command latency (the Agilent E3644A rig),
//! - [`ServiceProcessor`] — the thermal failsafe watchdog,
//! - [`Server`] — the assembled machine: thermal RC network, component
//!   powers with leakage-temperature feedback, PSU losses, CSTH
//!   telemetry polling, and energy/peak accounting,
//! - [`DynamicsLanes`] — many servers' per-step dynamics as contiguous
//!   arrays, the plain step of a fleet's packed-resident groups.
//!
//! # Example
//!
//! ```
//! use leakctl_platform::{Server, ServerConfig};
//! use leakctl_units::{Rpm, SimDuration, Utilization};
//!
//! # fn main() -> Result<(), leakctl_platform::PlatformError> {
//! let mut server = Server::new(ServerConfig::default(), 42)?;
//! server.command_fan_speed(Rpm::new(3300.0));
//! for _ in 0..60 {
//!     server.step(SimDuration::from_secs(1), Utilization::FULL)?;
//! }
//! assert!(server.system_power().value() > 400.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod cpu;
mod dimm;
mod engine;
mod error;
mod fans;
mod lanes;
mod server;
mod service_processor;

pub use config::ServerConfig;
pub use cpu::CpuSocket;
pub use dimm::DimmBank;
pub use engine::{Dynamics, ServerCore, SpTransition};
pub use error::PlatformError;
pub use fans::{FanBank, FanFault, FanSupply, FanUnit};
pub use lanes::{DynamicsLanes, LaneTemplate};
/// The sensor model a [`Server`]'s CSTH channels are measured through.
pub use leakctl_telemetry::{SensorBank, SensorSpec};
pub use server::Server;
pub use service_processor::{ServiceProcessor, SpAction};
