//! `leakctl` — leakage- and temperature-aware server cooling control.
//!
//! A full reproduction of *"Leakage and Temperature Aware Server Control
//! for Improving Energy Efficiency in Data Centers"* (Zapater et al.,
//! DATE 2013) as a Rust library, running against a calibrated digital
//! twin of the paper's SPARC T3 enterprise server.
//!
//! The crate wires the workspace's substrates into the paper's pipeline:
//!
//! 1. **Characterize** ([`characterize`]) — sweep utilization × fan
//!    speed with the LoadGen stress tool under the paper's experimental
//!    protocol, measuring steady temperatures and powers through
//!    simulated CSTH telemetry.
//! 2. **Fit** ([`fit_models`]) — identify `P_active = k1·U` and
//!    `P_leak = C + k2·e^(k3·T)` from the measurements (Fig. 2).
//! 3. **Build** ([`build_lut_from_characterization`]) — generate the
//!    lookup table of energy-optimal fan speeds per utilization level.
//! 4. **Evaluate** ([`run_experiment`], [`generate_table1`]) — run the
//!    Default, bang-bang and LUT controllers on the four 80-minute test
//!    workloads and reproduce Table I and Figs. 1 & 3 ([`fig1a`],
//!    [`fig3`], …).
//!
//! # Quickstart
//!
//! ```no_run
//! use leakctl::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Characterize the machine and build the optimal-fan-speed table.
//! let data = characterize(&CharacterizeOptions::quick(), 42)?;
//! let fitted = fit_models(&data)?;
//! let lut = build_lut_from_characterization(&data, &fitted)?;
//!
//! // Evaluate the LUT controller on Test-3.
//! let profile = leakctl_workload::suite::test3();
//! let mut controller = LutController::paper_default(lut);
//! let outcome = run_experiment(&RunOptions::default(), profile, &mut controller, 42)?;
//! println!("energy: {:.4} kWh", outcome.metrics.total_energy.as_kwh().value());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod building;
mod characterize;
pub mod control;
pub mod derating;
mod drive;
mod error;
mod experiment;
mod figures;
mod fitting;
pub mod fleet;
mod lut_pipeline;
pub mod paper;
pub mod report;
pub mod room;
pub mod scenario;
pub mod schedule;
pub mod supervise;
mod table1;

pub use characterize::{
    characterize, CharacterizationData, CharacterizationPoint, CharacterizeOptions,
};
pub use error::{BuildingError, ControlError, CoreError, PlacementError, RoomError};
pub use experiment::{
    measure_idle_power, run_experiment, RunMetrics, RunOptions, RunOutcome, RunSample,
};
pub use figures::{
    fig1a, fig1b, fig2a, fig2b, fig3, Fig1Data, Fig2Data, Fig2Point, Fig3Data, TempSeries,
};
pub use fitting::{fit_models, FittedModels};
pub use lut_pipeline::{build_lut_from_characterization, default_utilization_bins};
pub use table1::{generate_table1, Table1, Table1Options, Table1Row};

/// Convenient re-exports for application code.
pub mod prelude {
    pub use crate::building::{Building, BuildingCheckpoint, BuildingConfig};
    pub use crate::characterize::{characterize, CharacterizationData, CharacterizeOptions};
    pub use crate::control::{
        ControlAction, FixedSupplyController, LutSetPointController, MpcSetPointController,
        RoomController, RoomObservation, TileFlowBalancer,
    };
    pub use crate::experiment::{
        measure_idle_power, run_experiment, RunMetrics, RunOptions, RunOutcome,
    };
    pub use crate::fitting::{fit_models, FittedModels};
    pub use crate::lut_pipeline::build_lut_from_characterization;
    pub use crate::room::{ControlStats, CopModel, Room, RoomCheckpoint, RoomConfig};
    pub use crate::scenario::{
        BuildingEvent, BuildingOutcome, BuildingScenario, BuildingScenarioRunner, Scenario,
        ScenarioEvent, ScenarioOutcome, ScenarioRunner,
    };
    pub use crate::schedule::{
        FairShareRack, Job, JobStream, JobStreamConfig, LocalSearchScheduler, PlacementAction,
        RackLoads, RackScheduler, RoomScheduler, RoundRobinScheduler, ScheduleStats, ScheduledLoop,
        ThermalGreedyConfig, ThermalGreedyScheduler,
    };
    pub use crate::supervise::{MonitorTrip, Supervisor, SupervisorConfig, TripCounts};
    pub use crate::table1::{generate_table1, Table1, Table1Options};
    pub use leakctl_control::{
        BangBangController, FanController, FixedSpeedController, LookupTable, LutController,
        PidController,
    };
    pub use leakctl_platform::{
        DynamicsLanes, FanFault, LaneTemplate, SensorBank, SensorSpec, Server, ServerConfig,
    };
    pub use leakctl_sim::SimRng;
    pub use leakctl_units::{
        Celsius, Joules, KilowattHours, Rpm, SimDuration, SimInstant, Utilization, Watts,
    };
    pub use leakctl_workload::{suite, LoadGen, Profile, PwmConfig};
}
