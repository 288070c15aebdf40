//! Server power models and curve fitting for the `leakctl` workspace.
//!
//! The paper decomposes server power as
//!
//! ```text
//! P_total = P_active + P_leak + P_fan            (Eqn. 1)
//! P_active = k1 · U,   P_leak = C + k2 · e^(k3·T) (Eqn. 2)
//! ```
//!
//! with fitted constants `k1 = 0.4452`, `k2 = 0.3231`, `k3 = 0.04749`
//! (2.243 W RMS error, 98 % accuracy). This crate provides:
//!
//! - [`ActivePowerModel`] — the linear-in-utilization dynamic component,
//! - [`EmpiricalLeakage`] — the paper's exponential-in-temperature form,
//! - [`PhysicalLeakage`] — a BSIM-flavoured `T²·exp` ground-truth model
//!   used by the digital twin, so that *fitting* the empirical form to
//!   simulated telemetry is a genuine inference exercise,
//! - [`FanPowerModel`] — fan-affinity laws (`P ∝ RPM³`, `Q ∝ RPM`),
//! - [`PsuModel`] — load-dependent supply efficiency,
//! - [`ServerPowerModel`] — the Eqn. 1 composite,
//! - [`fit`] — ordinary least squares, Gauss–Newton/Levenberg–Marquardt,
//!   an exponential-model fitter, and goodness-of-fit metrics.
//!
//! # Example
//!
//! ```
//! use leakctl_power::{EmpiricalLeakage, FanPowerModel, ServerPowerModel};
//! use leakctl_units::{Celsius, Rpm, Utilization, Watts};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = ServerPowerModel::paper_fit();
//! let p = model.total(
//!     Utilization::from_percent(100.0)?,
//!     Celsius::new(70.0),
//!     Rpm::new(2400.0),
//! );
//! assert!(p.value() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod active;
mod fan;
pub mod fit;
mod leakage;
mod model;
mod psu;

pub use active::ActivePowerModel;
pub use fan::FanPowerModel;
pub use leakage::{EmpiricalLeakage, PhysicalLeakage};
pub use model::ServerPowerModel;
pub use psu::PsuModel;

/// The paper's fitted active-power slope, watts per percent utilization.
pub const PAPER_K1: f64 = 0.4452;

/// The paper's fitted leakage scale factor, watts.
pub const PAPER_K2: f64 = 0.3231;

/// The paper's fitted leakage temperature exponent, 1/°C.
pub const PAPER_K3: f64 = 0.04749;

/// The paper's reported RMS fitting error, watts.
pub const PAPER_FIT_RMSE: f64 = 2.243;

/// Temperature-independent leakage offset (the paper's `C`, not reported
/// numerically; chosen while calibrating the platform twin).
pub const DEFAULT_LEAK_OFFSET: f64 = 9.0;
