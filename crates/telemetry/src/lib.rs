//! Continuous System Telemetry Harness (CSTH) reproduction.
//!
//! The paper collects runtime dynamics through Oracle's CSTH running on
//! the server's service processor: 4 CPU temperatures (2 per die), 32
//! DIMM temperatures, per-core voltage/current, and whole-system power,
//! polled every 10 seconds. This crate reproduces that information
//! structure for the digital twin:
//!
//! - [`SensorBank`] — measurement-channel models (gain/offset error,
//!   Gaussian noise, quantization) sampled in lockstep, so controllers
//!   see realistic telemetry, not the simulator's exact state,
//! - [`Csth`] — the harness: named channels with units recorded one
//!   frame per poll into frame-major *coded* blocks of 16 frames, CSV
//!   export/import. A channel registered with a quantized sensor stores
//!   each reading as an `i16` count of its quantization step, which
//!   decodes to the reading bit for bit; the bank writes the counts
//!   straight into the open block. A default server's 73-channel frame
//!   (71 quantized, 2 ideal) takes 158 B plus an 8 B timestamp instead
//!   of 584 B. Full blocks are sealed and shared behind `Arc`, so
//!   cloning a capture (every server checkpoint does) copies the
//!   timestamps and the newest block, not the history,
//! - [`SeriesView`] — one channel decoded across a capture's blocks,
//!   with summary statistics and windowed queries; [`TimeSeries`] is
//!   its owned form.
//!
//! # Example
//!
//! ```
//! use leakctl_sim::SimRng;
//! use leakctl_telemetry::{Csth, SensorSpec};
//! use leakctl_units::SimInstant;
//!
//! let mut csth = Csth::new(leakctl_telemetry::CSTH_POLL_PERIOD);
//! let cpu0 = csth.add_channel("cpu0_temp", "C").unwrap();
//! csth.record_frame(SimInstant::ZERO, &[55.2]).unwrap();
//! assert_eq!(csth.series(cpu0).len(), 1);
//! # let _ = SensorSpec::default();
//! # let _ = SimRng::seed(0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod csv;
mod harness;
mod sensor;
mod series;

pub use csv::CsvError;
pub use harness::{ChannelId, Csth, TelemetryError};
pub use sensor::{SensorBank, SensorSpec};
pub use series::{SeriesView, TimeSeries};

use leakctl_units::SimDuration;

/// The paper's CSTH polling period: "these data are polled every 10
/// seconds".
pub const CSTH_POLL_PERIOD: SimDuration = SimDuration::from_secs(10);

/// The paper's utilization polling period on the DLC-PC: "utilization is
/// polled every second".
pub const UTILIZATION_POLL_PERIOD: SimDuration = SimDuration::from_secs(1);
