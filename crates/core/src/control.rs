//! Room-scale control: the closed loop that drives the CRAH supply
//! set-point and the under-floor tile-flow split.
//!
//! [PR 5's room](crate::room) built the actuators — a settable supply
//! boundary, per-rack tile-flow channels, COP-based cooling
//! accounting — and this module adds the brains: a [`RoomController`]
//! observes a [`RoomObservation`] snapshot each decision period and
//! answers with a [`ControlAction`] that [`Room::apply`] commits
//! atomically. Three built-in controllers span the paper's design
//! space:
//!
//! - [`FixedSupplyController`] — the non-adaptive baseline every
//!   comparison is made against: one set-point, pinned forever.
//! - [`LutSetPointController`] — the paper's LUT style lifted to room
//!   scale: a monotone table maps the observed load regime to a target
//!   *cold-aisle* temperature, and the supply set-point is back-
//!   computed through the observed recirculation lift, so one table
//!   serves every leakage regime (any recirculation fraction β).
//! - [`MpcSetPointController`] — a receding-horizon optimizer: each
//!   period it previews every candidate set-point through
//!   [`RoomAirModel::preview_supply`]'s cached-factorization steady
//!   solve, predicts the leakage/cooling split with an
//!   [`EmpiricalLeakage`] curve and a [`CopModel`], and commits the
//!   first move of the cheapest hot-spot-feasible plan.
//!
//! Either adaptive controller can carry a [`TileFlowBalancer`], which
//! shifts under-floor airflow toward the racks with the smallest
//! hot-spot margin (highest die temperatures) while conserving the
//! total — the room-scale analogue of the paper's per-server fan
//! trade-off.
//!
//! The loop itself is [`Room::run_controlled`]; see the README's
//! "Control" section for the end-to-end picture.
//!
//! [`RoomAirModel::preview_supply`]: leakctl_thermal::RoomAirModel::preview_supply
//! [`Room::apply`]: crate::room::Room::apply
//! [`Room::run_controlled`]: crate::room::Room::run_controlled

use leakctl_power::EmpiricalLeakage;
use leakctl_thermal::RoomAirModel;
use leakctl_units::{AirFlow, Celsius, Rpm, SimDuration, Utilization, Watts};

use crate::error::{ControlError, CoreError};
use crate::room::CopModel;

/// A read-only room snapshot handed to [`RoomController::observe`] —
/// everything a set-point/tile-flow policy may act on, and nothing
/// that would require `&mut Room` to gather.
///
/// Built allocation-free by
/// [`Room::observe_into`](crate::room::Room::observe_into): the
/// per-rack vectors are cleared and refilled in place, so a controller
/// loop (or a telemetry poller) reuses one snapshot forever. The same
/// property is the groundwork for a concurrent `leakctld` read path:
/// nothing here holds borrows into the room.
///
/// # Example
///
/// ```
/// use leakctl::control::RoomObservation;
/// use leakctl::room::{Room, RoomConfig};
///
/// # fn main() -> Result<(), leakctl::CoreError> {
/// let room = Room::new(RoomConfig::new(1, 2, 2))?;
/// let mut obs = RoomObservation::new();
/// room.observe_into(&mut obs);
/// assert_eq!(obs.racks(), 2);
/// assert_eq!(obs.supply.degrees(), 18.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RoomObservation {
    /// Simulated time the room has accounted so far.
    pub time: SimDuration,
    /// Current CRAH supply set-point.
    pub supply: Celsius,
    /// Mixed hot-aisle return temperature at the CRAH intake.
    pub return_temp: Celsius,
    /// Structural hot-aisle recirculation fraction β.
    pub recirculation: f64,
    /// Mean activity commanded over the most recent step (the load
    /// regime a LUT-style policy keys on); idle before the first step.
    pub activity: Utilization,
    /// Total IT (server + fan) power right now.
    pub it_power: Watts,
    /// CRAH compressor power right now (heat removed over COP).
    pub cooling_power: Watts,
    /// CRAH coefficient of performance at the current set-point.
    pub cop: f64,
    /// Servers per rack (uniform across the floor).
    pub servers_per_rack: usize,
    /// Per-rack cold-aisle (inlet) temperatures.
    pub cold_aisles: Vec<Celsius>,
    /// Per-rack hot-aisle temperatures.
    pub hot_aisles: Vec<Celsius>,
    /// Per-rack hottest die temperatures (packed-block read path — no
    /// state unpacks).
    pub rack_die_max: Vec<Celsius>,
    /// Per-rack under-floor tile flows.
    pub tile_flows: Vec<AirFlow>,
    /// Per-rack IT (server + fan) power right now — the scheduler-side
    /// read path for budget headroom checks.
    pub rack_it_power: Vec<Watts>,
    /// Per-rack activity that actually ran over the most recent step
    /// (power-budget throttling included); idle before the first step.
    pub rack_activity: Vec<Utilization>,
    /// The room's thermal cap on die temperature.
    pub die_limit: Celsius,
}

impl RoomObservation {
    /// An empty snapshot; fill it with
    /// [`Room::observe_into`](crate::room::Room::observe_into).
    #[must_use]
    pub fn new() -> Self {
        Self {
            time: SimDuration::ZERO,
            supply: Celsius::new(0.0),
            return_temp: Celsius::new(0.0),
            recirculation: 0.0,
            activity: Utilization::IDLE,
            it_power: Watts::ZERO,
            cooling_power: Watts::ZERO,
            cop: 1.0,
            servers_per_rack: 0,
            cold_aisles: Vec::new(),
            hot_aisles: Vec::new(),
            rack_die_max: Vec::new(),
            tile_flows: Vec::new(),
            rack_it_power: Vec::new(),
            rack_activity: Vec::new(),
            die_limit: Celsius::new(f64::INFINITY),
        }
    }

    /// Number of racks in the snapshot.
    #[must_use]
    pub fn racks(&self) -> usize {
        self.rack_die_max.len()
    }

    /// The hottest die anywhere in the room.
    #[must_use]
    pub fn max_die_temperature(&self) -> Celsius {
        self.rack_die_max
            .iter()
            .copied()
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
    }

    /// The rack with the hottest die — the hot spot a tile-flow or
    /// set-point policy acts on (0 for an unfilled snapshot). Total
    /// order, so a non-finite die temperature under an injected fault
    /// still picks a rack instead of panicking mid-decision.
    #[must_use]
    pub fn hottest_rack(&self) -> usize {
        self.rack_die_max
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.degrees().total_cmp(&b.degrees()))
            .map_or(0, |(r, _)| r)
    }

    /// The worst (largest) cold-aisle lift above the supply set-point —
    /// the observed recirculation + tile-starvation penalty a LUT
    /// policy subtracts when back-computing a supply from a cold-aisle
    /// target.
    #[must_use]
    pub fn max_inlet_lift(&self) -> f64 {
        self.cold_aisles
            .iter()
            .map(|t| t.degrees() - self.supply.degrees())
            .fold(0.0, f64::max)
    }

    /// Total under-floor tile flow `Σq_r`.
    #[must_use]
    pub fn total_tile_flow(&self) -> AirFlow {
        AirFlow::new(self.tile_flows.iter().map(|q| q.value()).sum())
    }

    /// Total room power (IT plus CRAH compressor) right now.
    #[must_use]
    pub fn total_power(&self) -> Watts {
        self.it_power + self.cooling_power
    }
}

impl Default for RoomObservation {
    fn default() -> Self {
        Self::new()
    }
}

/// A validated, atomically applied room command: the one write path
/// that replaced the `set_crah_supply` / `set_tile_flow` /
/// `command_all` scatter.
///
/// Every field is optional — `None` holds the current value — so a
/// controller expresses exactly the moves it wants.
/// [`Room::apply`](crate::room::Room::apply) validates the whole
/// action first and only then touches the room, so a rejected action
/// never leaves it half-applied.
///
/// # Example
///
/// ```
/// use leakctl::control::ControlAction;
/// use leakctl::room::{Room, RoomConfig};
/// use leakctl_units::{Celsius, Rpm};
///
/// # fn main() -> Result<(), leakctl::CoreError> {
/// let mut room = Room::new(RoomConfig::new(1, 2, 2))?;
/// let action = ControlAction::hold()
///     .with_supply(Celsius::new(22.0))
///     .with_fan_floor(Rpm::new(3000.0));
/// room.apply(&action)?;
/// assert_eq!(room.air().supply_temperature().degrees(), 22.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControlAction {
    /// New CRAH supply set-point (`None` holds the current one).
    pub supply: Option<Celsius>,
    /// New per-rack tile flows, one entry per rack (`None` holds the
    /// current split).
    pub tile_flows: Option<Vec<AirFlow>>,
    /// Commands every fan in the room to this speed — the floor the
    /// room guarantees from the next step (`None` leaves fans alone).
    pub fan_floor: Option<Rpm>,
}

impl ControlAction {
    /// The do-nothing action (every field `None`).
    #[must_use]
    pub fn hold() -> Self {
        Self::default()
    }

    /// `true` when the action changes nothing.
    #[must_use]
    pub fn is_hold(&self) -> bool {
        self.supply.is_none() && self.tile_flows.is_none() && self.fan_floor.is_none()
    }

    /// Sets the supply set-point move.
    #[must_use]
    pub fn with_supply(mut self, supply: Celsius) -> Self {
        self.supply = Some(supply);
        self
    }

    /// Sets the tile-flow move (one entry per rack).
    #[must_use]
    pub fn with_tile_flows(mut self, flows: Vec<AirFlow>) -> Self {
        self.tile_flows = Some(flows);
        self
    }

    /// Sets the room-wide fan floor.
    #[must_use]
    pub fn with_fan_floor(mut self, rpm: Rpm) -> Self {
        self.fan_floor = Some(rpm);
        self
    }
}

/// The what-if oracle a controller may query while deciding: steady
/// cold-aisle temperatures under a candidate supply set-point.
///
/// [`Room::run_controlled`](crate::room::Room::run_controlled) passes
/// the live room's air network (cached-factorization steady solves via
/// [`RoomAirModel::preview_supply`]); [`AnalyticPreview`] is a
/// stand-alone linear-response implementation for unit tests and
/// model-only planning.
///
/// [`RoomAirModel::preview_supply`]: leakctl_thermal::RoomAirModel::preview_supply
pub trait SupplyPreview {
    /// Fills `cold_aisles` (cleared first) with the steady per-rack
    /// cold-aisle temperatures the room would settle at under
    /// `supply`, holding powers and tile flows; returns the previewed
    /// CRAH return temperature.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] (or a propagated solver error)
    /// for candidates the model cannot evaluate.
    fn preview_supply(
        &mut self,
        supply: Celsius,
        cold_aisles: &mut Vec<Celsius>,
    ) -> Result<Celsius, CoreError>;
}

/// The live room air network as a what-if oracle — what
/// [`Room::decide`](crate::room::Room::decide) hands its controller.
/// Previews solve into a scratch state and restore the boundary
/// afterwards, so the live trajectory is untouched bit-for-bit.
impl SupplyPreview for RoomAirModel {
    fn preview_supply(
        &mut self,
        supply: Celsius,
        cold_aisles: &mut Vec<Celsius>,
    ) -> Result<Celsius, CoreError> {
        RoomAirModel::preview_supply(self, supply, cold_aisles)
            .map_err(|e| CoreError::Platform(e.into()))
    }
}

/// Linear-response [`SupplyPreview`]: a supply move passes 1:1 into
/// every cold aisle (exactly what the advective room network does at
/// steady state for any recirculation fraction). Built from an
/// observation, so controllers are unit-testable without a room.
#[derive(Debug, Clone)]
pub struct AnalyticPreview {
    supply: Celsius,
    return_temp: Celsius,
    cold_aisles: Vec<Celsius>,
}

impl AnalyticPreview {
    /// Captures the linear-response base point from a snapshot.
    #[must_use]
    pub fn from_observation(obs: &RoomObservation) -> Self {
        Self {
            supply: obs.supply,
            return_temp: obs.return_temp,
            cold_aisles: obs.cold_aisles.clone(),
        }
    }
}

impl SupplyPreview for AnalyticPreview {
    fn preview_supply(
        &mut self,
        supply: Celsius,
        cold_aisles: &mut Vec<Celsius>,
    ) -> Result<Celsius, CoreError> {
        if !supply.degrees().is_finite() {
            return Err(CoreError::Invalid {
                what: "supply candidate must be finite".to_owned(),
            });
        }
        let lift = supply.degrees() - self.supply.degrees();
        cold_aisles.clear();
        cold_aisles.extend(
            self.cold_aisles
                .iter()
                .map(|t| Celsius::new(t.degrees() + lift)),
        );
        Ok(Celsius::new(self.return_temp.degrees() + lift))
    }
}

/// A room-scale control policy: poll an observation every
/// [`decision_period`](RoomController::decision_period), answer with a
/// [`ControlAction`].
///
/// The trait is object-safe — the closed loop holds
/// `&mut dyn RoomController` — and every later subsystem (the
/// thermal-aware scheduler, the `leakctld` set-point endpoint, the
/// fault-scenario harness) plugs in through it.
///
/// # Example: a custom controller
///
/// ```
/// use leakctl::control::{
///     ControlAction, RoomController, RoomObservation, SupplyPreview,
/// };
/// use leakctl_units::{Celsius, SimDuration};
///
/// /// Chases a fixed return-temperature target.
/// struct ReturnChaser {
///     target: Celsius,
/// }
///
/// impl RoomController for ReturnChaser {
///     fn name(&self) -> &str {
///         "return-chaser"
///     }
///     fn decision_period(&self) -> SimDuration {
///         SimDuration::from_secs(60)
///     }
///     fn observe(
///         &mut self,
///         obs: &RoomObservation,
///         _preview: &mut dyn SupplyPreview,
///     ) -> ControlAction {
///         let error = self.target.degrees() - obs.return_temp.degrees();
///         ControlAction::hold().with_supply(Celsius::new(obs.supply.degrees() + 0.5 * error))
///     }
/// }
///
/// let mut boxed: Box<dyn RoomController> = Box::new(ReturnChaser {
///     target: Celsius::new(32.0),
/// });
/// assert_eq!(boxed.name(), "return-chaser");
/// ```
pub trait RoomController {
    /// Short name used in sweeps and reports (e.g. `"LUT"`).
    fn name(&self) -> &str;

    /// How much simulated time passes between decisions.
    fn decision_period(&self) -> SimDuration;

    /// Makes a control decision from the current snapshot. `preview`
    /// answers what-if set-point questions against the live room
    /// model; policies that don't plan ahead simply ignore it.
    fn observe(&mut self, obs: &RoomObservation, preview: &mut dyn SupplyPreview) -> ControlAction;

    /// Resets internal state for a fresh run (default: nothing).
    fn reset(&mut self) {}

    /// Serializes the controller's mutable state as an opaque flat
    /// vector for scenario checkpointing (default: stateless). The
    /// encoding must round-trip exactly: restoring it and continuing
    /// must decide bit-identically to never having been interrupted.
    fn checkpoint_state(&self) -> Vec<f64> {
        Vec::new()
    }

    /// Restores state produced by
    /// [`checkpoint_state`](RoomController::checkpoint_state) (default:
    /// no-op). Unrecognized or truncated input falls back to the
    /// freshly-reset state rather than panicking.
    fn restore_state(&mut self, _state: &[f64]) {}
}

/// The non-adaptive baseline: pins one supply set-point (and
/// optionally a fan floor) at the first decision and holds forever —
/// the "best fixed supply" comparisons in the set-point figure are
/// sweeps over this controller.
#[derive(Debug, Clone)]
pub struct FixedSupplyController {
    supply: Celsius,
    fan_floor: Option<Rpm>,
    period: SimDuration,
    pending: bool,
}

impl FixedSupplyController {
    /// A baseline pinned at `supply`.
    #[must_use]
    pub fn new(supply: Celsius) -> Self {
        Self {
            supply,
            fan_floor: None,
            period: SimDuration::from_secs(60),
            pending: true,
        }
    }

    /// Also pins a room-wide fan floor at the first decision.
    #[must_use]
    pub fn with_fan_floor(mut self, rpm: Rpm) -> Self {
        self.fan_floor = Some(rpm);
        self
    }

    /// The pinned set-point.
    #[must_use]
    pub fn supply(&self) -> Celsius {
        self.supply
    }
}

impl RoomController for FixedSupplyController {
    fn name(&self) -> &str {
        "fixed"
    }

    fn decision_period(&self) -> SimDuration {
        self.period
    }

    fn observe(
        &mut self,
        _obs: &RoomObservation,
        _preview: &mut dyn SupplyPreview,
    ) -> ControlAction {
        if self.pending {
            self.pending = false;
            let mut action = ControlAction::hold().with_supply(self.supply);
            if let Some(rpm) = self.fan_floor {
                action = action.with_fan_floor(rpm);
            }
            action
        } else {
            ControlAction::hold()
        }
    }

    fn reset(&mut self) {
        self.pending = true;
    }

    fn checkpoint_state(&self) -> Vec<f64> {
        vec![f64::from(u8::from(self.pending))]
    }

    fn restore_state(&mut self, state: &[f64]) {
        self.pending = state.first().is_none_or(|&v| v != 0.0);
    }
}

/// Shifts under-floor airflow toward the racks with the smallest
/// hot-spot margin while conserving the total — each decision moves
/// every rack's tile flow by `gain` per °C its hottest die sits away
/// from the room mean, clamped to `min_share` of the mean flow, then
/// rescales so `Σq_r` is untouched (the CRAH supply flow never
/// changes under balancing).
///
/// Repeated applications converge: hot racks gain airflow, cool down,
/// and the per-rack [`RoomObservation::rack_die_max`] spread — the
/// quantity the balancer equalizes — contracts.
#[derive(Debug, Clone)]
pub struct TileFlowBalancer {
    /// Fractional flow moved per °C of die-temperature imbalance.
    pub gain: f64,
    /// Per-rack floor, as a fraction of the mean tile flow.
    pub min_share: f64,
    /// Die-temperature spread below which the balancer holds (avoids
    /// refactorizing the air solver for sub-noise rebalances).
    pub deadband: f64,
}

impl TileFlowBalancer {
    /// A balancer with a given per-°C gain, a 25 % floor share and a
    /// 0.25 °C deadband.
    #[must_use]
    pub fn new(gain: f64) -> Self {
        Self {
            gain,
            min_share: 0.25,
            deadband: 0.25,
        }
    }

    /// The rebalanced per-rack flows for this snapshot, or `None` when
    /// the die-temperature spread sits inside the deadband (hold).
    #[must_use]
    pub fn balance(&self, obs: &RoomObservation) -> Option<Vec<AirFlow>> {
        let racks = obs.racks();
        if racks < 2 || obs.tile_flows.len() != racks {
            return None;
        }
        let mean_die = obs.rack_die_max.iter().map(|t| t.degrees()).sum::<f64>() / racks as f64;
        let spread = obs
            .rack_die_max
            .iter()
            .map(|t| (t.degrees() - mean_die).abs())
            .fold(0.0, f64::max);
        if spread <= self.deadband {
            return None;
        }
        let total: f64 = obs.tile_flows.iter().map(|q| q.value()).sum();
        let floor = self.min_share * total / racks as f64;
        let mut flows: Vec<f64> = obs
            .tile_flows
            .iter()
            .zip(&obs.rack_die_max)
            .map(|(q, die)| {
                let scale = 1.0 + self.gain * (die.degrees() - mean_die);
                (q.value() * scale).max(floor)
            })
            .collect();
        let sum: f64 = flows.iter().sum();
        for q in &mut flows {
            *q *= total / sum;
        }
        Some(flows.into_iter().map(AirFlow::new).collect())
    }
}

/// One row of a [`LutSetPointController`] table: for load regimes up
/// to `max_load`, aim the *cold aisles* at `cold_aisle_target`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LutEntry {
    /// Upper edge (inclusive) of the load regime this row covers.
    pub max_load: Utilization,
    /// Cold-aisle temperature to aim at in this regime.
    pub cold_aisle_target: Celsius,
}

/// The paper's LUT style at room scale: a monotone table maps the
/// observed load regime to a target cold-aisle temperature, and the
/// supply set-point is back-computed through the *observed* worst
/// inlet lift (`max cold-aisle − supply`), so one table serves every
/// leakage regime — more recirculation simply yields a colder supply
/// for the same target.
///
/// Targets come from the same trade-off the paper's Fig. 3 resolves:
/// light load means cool dies and a flat leakage slope, so the warm
/// (COP-friendly) end wins; heavy load steepens the exponential
/// leakage slope and pushes the optimum down while the hot-spot cap
/// pins the ceiling.
#[derive(Debug, Clone)]
pub struct LutSetPointController {
    entries: Vec<LutEntry>,
    balancer: Option<TileFlowBalancer>,
    fan_floor: Option<Rpm>,
    period: SimDuration,
    supply_range: (Celsius, Celsius),
    safe_fan_floor: Option<Rpm>,
    in_safe_mode: bool,
    safe_mode_entries: u64,
    scratch: Vec<Celsius>,
}

impl LutSetPointController {
    /// A controller over an explicit table. Entries are sorted by
    /// `max_load`; the last row is the catch-all for full load.
    ///
    /// # Panics
    ///
    /// Panics on an invalid table (see
    /// [`LutSetPointController::try_new`]).
    #[must_use]
    pub fn new(entries: Vec<LutEntry>) -> Self {
        match Self::try_new(entries) {
            Ok(controller) => controller,
            Err(e) => panic!("invalid LUT table: {e}"),
        }
    }

    /// As [`LutSetPointController::new`], with invalid tables coming
    /// back as typed errors instead of panics — the constructor to use
    /// for tables assembled at runtime.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::EmptyLut`] for an empty table and
    /// [`ControlError::NonFiniteLutLoad`] for a non-finite load bound.
    pub fn try_new(mut entries: Vec<LutEntry>) -> Result<Self, ControlError> {
        if entries.is_empty() {
            return Err(ControlError::EmptyLut);
        }
        if entries
            .iter()
            .any(|e| !e.max_load.as_fraction().is_finite())
        {
            return Err(ControlError::NonFiniteLutLoad);
        }
        entries.sort_by(|a, b| {
            a.max_load
                .as_fraction()
                .total_cmp(&b.max_load.as_fraction())
        });
        Ok(Self {
            entries,
            balancer: None,
            fan_floor: None,
            period: SimDuration::from_secs(60),
            supply_range: (Celsius::new(12.0), Celsius::new(32.0)),
            safe_fan_floor: Some(Rpm::new(4200.0)),
            in_safe_mode: false,
            safe_mode_entries: 0,
            scratch: Vec::new(),
        })
    }

    /// The default three-regime table used by the `repro-setpoint`
    /// figure: ≤35 % load aims the cold aisles at 27 °C, ≤75 % at
    /// 24 °C, and full load at 21 °C.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(vec![
            LutEntry {
                max_load: Utilization::saturating_from_fraction(0.35),
                cold_aisle_target: Celsius::new(27.0),
            },
            LutEntry {
                max_load: Utilization::saturating_from_fraction(0.75),
                cold_aisle_target: Celsius::new(24.0),
            },
            LutEntry {
                max_load: Utilization::FULL,
                cold_aisle_target: Celsius::new(21.0),
            },
        ])
    }

    /// Attaches a tile-flow balancer to run alongside the set-point
    /// table.
    #[must_use]
    pub fn with_balancer(mut self, balancer: TileFlowBalancer) -> Self {
        self.balancer = Some(balancer);
        self
    }

    /// Pins a room-wide fan floor at every decision.
    #[must_use]
    pub fn with_fan_floor(mut self, rpm: Rpm) -> Self {
        self.fan_floor = Some(rpm);
        self
    }

    /// Overrides the decision period (default one minute).
    #[must_use]
    pub fn with_period(mut self, period: SimDuration) -> Self {
        self.period = period;
        self
    }

    /// Clamps emitted supply set-points to `[lo, hi]` (default
    /// 12–32 °C).
    #[must_use]
    pub fn with_supply_range(mut self, lo: Celsius, hi: Celsius) -> Self {
        self.supply_range = (lo, hi);
        self
    }

    /// Sets the fan floor commanded while in max-cooling safe mode
    /// (default 4200 RPM, the paper server's fan ceiling); `None`
    /// leaves fans alone even in safe mode.
    #[must_use]
    pub fn with_safe_fan_floor(mut self, rpm: Option<Rpm>) -> Self {
        self.safe_fan_floor = rpm;
        self
    }

    /// How many times the controller has entered max-cooling safe mode
    /// (the supply preview became unevaluable — e.g. a CRAH outage with
    /// no steady state).
    #[must_use]
    pub fn safe_mode_entries(&self) -> u64 {
        self.safe_mode_entries
    }

    /// The cold-aisle target for a load regime (table lookup).
    #[must_use]
    pub fn target_for(&self, load: Utilization) -> Celsius {
        self.entries
            .iter()
            .find(|e| load.as_fraction() <= e.max_load.as_fraction())
            .or_else(|| self.entries.last())
            .map_or(Celsius::new(f64::NAN), |e| e.cold_aisle_target)
    }
}

impl RoomController for LutSetPointController {
    fn name(&self) -> &str {
        "LUT"
    }

    fn decision_period(&self) -> SimDuration {
        self.period
    }

    fn observe(&mut self, obs: &RoomObservation, preview: &mut dyn SupplyPreview) -> ControlAction {
        let target = self.target_for(obs.activity);
        // Back out the supply that puts the *worst* cold aisle at the
        // target under the currently observed lift.
        let supply = (target.degrees() - obs.max_inlet_lift())
            .clamp(self.supply_range.0.degrees(), self.supply_range.1.degrees());
        // Probe the oracle once: a preview that cannot be evaluated
        // means the plant has no steady state under the current fault
        // (e.g. a CRAH outage) — back-computed set-points would chase
        // garbage, so fall back to max cooling until it recovers.
        let mut scratch = std::mem::take(&mut self.scratch);
        let evaluable = preview
            .preview_supply(Celsius::new(supply), &mut scratch)
            .is_ok();
        self.scratch = scratch;
        if !evaluable {
            if !self.in_safe_mode {
                self.in_safe_mode = true;
                self.safe_mode_entries += 1;
            }
            let mut action = ControlAction::hold().with_supply(self.supply_range.0);
            if let Some(rpm) = self.safe_fan_floor.or(self.fan_floor) {
                action = action.with_fan_floor(rpm);
            }
            return action;
        }
        self.in_safe_mode = false;
        let mut action = ControlAction::hold().with_supply(Celsius::new(supply));
        if let Some(balancer) = &self.balancer {
            if let Some(flows) = balancer.balance(obs) {
                action = action.with_tile_flows(flows);
            }
        }
        if let Some(rpm) = self.fan_floor {
            action = action.with_fan_floor(rpm);
        }
        action
    }

    fn reset(&mut self) {
        self.in_safe_mode = false;
        self.safe_mode_entries = 0;
    }

    fn checkpoint_state(&self) -> Vec<f64> {
        vec![
            f64::from(u8::from(self.in_safe_mode)),
            self.safe_mode_entries as f64,
        ]
    }

    fn restore_state(&mut self, state: &[f64]) {
        self.in_safe_mode = state.first().is_some_and(|&v| v != 0.0);
        self.safe_mode_entries = state.get(1).map_or(0, |&v| v as u64);
    }
}

/// Configuration for [`MpcSetPointController`].
#[derive(Debug, Clone)]
pub struct MpcConfig {
    /// Candidate supply set-points swept each decision.
    pub candidates: Vec<Celsius>,
    /// Preview horizon the candidate plans are costed over.
    pub horizon: SimDuration,
    /// First-order time constant of the die-temperature response to an
    /// inlet move (sets how much of the steady prediction is reachable
    /// within the horizon).
    pub response_time: SimDuration,
    /// Hot-spot cap: plans whose predicted end-of-horizon hottest die
    /// exceeds this are infeasible.
    pub die_limit: Celsius,
    /// Cap headroom reserved against an *unforecast* load step, scaled
    /// by how far the load can still rise: the effective cap is
    /// `die_limit − step_headroom · (1 − load)`. At full load nothing
    /// is reserved (there is no step left to absorb); at light load the
    /// room idles cool enough that a sudden ramp cannot overrun the cap
    /// within the controller's reaction window.
    pub step_headroom: Celsius,
    /// Per-server leakage curve used to predict the IT-power response
    /// to a die-temperature move.
    pub leakage: EmpiricalLeakage,
    /// CRAH efficiency curve used to cost the cooling side.
    pub cop: CopModel,
    /// Decision period.
    pub period: SimDuration,
}

impl MpcConfig {
    /// The default configuration used by the `repro-setpoint` figure:
    /// 14–30 °C candidates in 2 °C steps, a 10-minute horizon with a
    /// 3-minute response time, an 85 °C hot-spot cap, the paper's
    /// fitted leakage curve and the HP chilled-water COP model.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            candidates: (0..9)
                .map(|i| Celsius::new(14.0 + 2.0 * i as f64))
                .collect(),
            horizon: SimDuration::from_mins(10),
            response_time: SimDuration::from_mins(3),
            die_limit: Celsius::new(85.0),
            step_headroom: Celsius::new(8.0),
            leakage: EmpiricalLeakage::paper_fit(),
            cop: CopModel::HpChilledWater,
            period: SimDuration::from_secs(60),
        }
    }
}

/// Receding-horizon set-point optimization: each period, every
/// candidate supply is previewed through the room model's
/// cached-factorization steady solve, the leakage/cooling energy of
/// the resulting plan is predicted over the horizon, and the first
/// move of the cheapest plan whose predicted hot spot stays under the
/// cap is committed — re-planned from scratch at the next decision
/// (per Ogura et al., "MPC for Energy-Efficient Operation of Data
/// Centers with Cold Aisle Containments").
///
/// The prediction model: a supply move shifts each rack's cold aisle
/// by the previewed amount, dies follow their inlet 1:1 through a
/// first-order lag (`response_time`), per-server leakage follows the
/// [`EmpiricalLeakage`] curve, and cooling power is the predicted IT
/// power over the [`CopModel`] at the candidate. On top of the inlet
/// shift the prediction carries the *observed* heating trend: each
/// rack's die slope since the previous decision, extrapolated one
/// response time ahead, so a load step caught mid-transient backs the
/// plan off before the hot spot arrives instead of after. When no
/// candidate is feasible the coldest one is committed (maximum
/// cooling headroom).
#[derive(Debug, Clone)]
pub struct MpcSetPointController {
    cfg: MpcConfig,
    balancer: Option<TileFlowBalancer>,
    fan_floor: Option<Rpm>,
    scratch: Vec<Celsius>,
    /// Previous decision's (time, per-rack hottest die) for the trend
    /// term; cleared by [`RoomController::reset`].
    history: Option<(SimDuration, Vec<Celsius>)>,
    trend: Vec<f64>,
    safe_fan_floor: Option<Rpm>,
    in_safe_mode: bool,
    safe_mode_entries: u64,
}

impl MpcSetPointController {
    /// A controller over an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics on an empty candidate list (see
    /// [`MpcSetPointController::try_new`]).
    #[must_use]
    pub fn new(cfg: MpcConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(controller) => controller,
            Err(e) => panic!("invalid MPC config: {e}"),
        }
    }

    /// As [`MpcSetPointController::new`], with invalid configurations
    /// coming back as typed errors instead of panics.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::NoCandidates`] for an empty candidate
    /// list.
    pub fn try_new(cfg: MpcConfig) -> Result<Self, ControlError> {
        if cfg.candidates.is_empty() {
            return Err(ControlError::NoCandidates);
        }
        Ok(Self {
            cfg,
            balancer: None,
            fan_floor: None,
            scratch: Vec::new(),
            history: None,
            trend: Vec::new(),
            safe_fan_floor: Some(Rpm::new(4200.0)),
            in_safe_mode: false,
            safe_mode_entries: 0,
        })
    }

    /// The default `repro-setpoint` configuration
    /// ([`MpcConfig::paper_default`]).
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(MpcConfig::paper_default())
    }

    /// Attaches a tile-flow balancer to run alongside the optimizer.
    #[must_use]
    pub fn with_balancer(mut self, balancer: TileFlowBalancer) -> Self {
        self.balancer = Some(balancer);
        self
    }

    /// Pins a room-wide fan floor at every decision.
    #[must_use]
    pub fn with_fan_floor(mut self, rpm: Rpm) -> Self {
        self.fan_floor = Some(rpm);
        self
    }

    /// Sets the fan floor commanded while in max-cooling safe mode
    /// (default 4200 RPM, the paper server's fan ceiling); `None`
    /// leaves fans alone even in safe mode.
    #[must_use]
    pub fn with_safe_fan_floor(mut self, rpm: Option<Rpm>) -> Self {
        self.safe_fan_floor = rpm;
        self
    }

    /// How many times the optimizer has entered max-cooling safe mode
    /// (every candidate preview failed — the plant has no steady state
    /// under the current fault).
    #[must_use]
    pub fn safe_mode_entries(&self) -> u64 {
        self.safe_mode_entries
    }

    /// Predicted room power rate (IT + cooling) and hottest die for a
    /// candidate, given the previewed cold aisles, at `alpha` ∈ [0, 1]
    /// of the way toward the new steady point. `self.trend` (°C/s per
    /// rack, heating only) carries the in-progress transient.
    fn predict(
        &self,
        obs: &RoomObservation,
        previewed: &[Celsius],
        supply: Celsius,
        alpha: f64,
    ) -> (f64, f64) {
        let n = obs.servers_per_rack as f64;
        let tau = self.cfg.response_time.as_secs_f64();
        let mut it = obs.it_power.value();
        let mut hottest = f64::NEG_INFINITY;
        for (r, die_now) in obs.rack_die_max.iter().enumerate() {
            let shift = previewed[r].degrees() - obs.cold_aisles[r].degrees();
            // For a first-order response the remaining travel is about
            // slope × τ (signed): a heating rack sits that far below
            // its incoming steady point, a cooling one that far above.
            let climb = self.trend.get(r).copied().unwrap_or(0.0) * tau;
            let die = die_now.degrees() + climb + alpha * shift;
            hottest = hottest.max(die);
            let delta = self.cfg.leakage.power(Celsius::new(die)).value()
                - self.cfg.leakage.power(*die_now).value();
            it += n * delta;
        }
        let rate = it * (1.0 + 1.0 / self.cfg.cop.cop(supply));
        (rate, hottest)
    }
}

impl RoomController for MpcSetPointController {
    fn name(&self) -> &str {
        "MPC"
    }

    fn decision_period(&self) -> SimDuration {
        self.cfg.period
    }

    fn observe(&mut self, obs: &RoomObservation, preview: &mut dyn SupplyPreview) -> ControlAction {
        // Fraction of the steady shift reached by the end of the
        // horizon under the first-order die response.
        let tau = self.cfg.response_time.as_secs_f64().max(1e-9);
        let alpha = 1.0 - (-self.cfg.horizon.as_secs_f64() / tau).exp();
        // Per-rack die slope since the previous decision, signed: for a
        // first-order response, slope × τ is the remaining travel to
        // the steady point at the *current* supply, so a heating rack
        // is credited its incoming climb and a cooling one its incoming
        // decay — without the signed term a post-peak decay would read
        // as "too hot now" and trigger active overcooling the physics
        // is about to do for free.
        self.trend.clear();
        match &self.history {
            Some((t0, dies)) if obs.time > *t0 && dies.len() == obs.racks() => {
                let dt = (obs.time - *t0).as_secs_f64();
                self.trend.extend(
                    obs.rack_die_max
                        .iter()
                        .zip(dies)
                        .map(|(now, then)| (now.degrees() - then.degrees()) / dt),
                );
            }
            _ => self.trend.resize(obs.racks(), 0.0),
        }
        // Effective cap: reserve step headroom in proportion to how far
        // the load can still rise (nothing at full load).
        let limit = self.cfg.die_limit.degrees()
            - self.cfg.step_headroom.degrees() * (1.0 - obs.activity.as_fraction());
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut best: Option<(f64, Celsius)> = None;
        let mut coldest: Option<Celsius> = None;
        for &candidate in &self.cfg.candidates {
            if preview.preview_supply(candidate, &mut scratch).is_err()
                || scratch.len() != obs.racks()
            {
                continue; // unevaluable candidate: treat as infeasible
            }
            coldest = Some(match coldest {
                Some(c) => c.min(candidate),
                None => candidate,
            });
            let (rate, hottest) = self.predict(obs, &scratch, candidate, alpha);
            if hottest > limit {
                continue;
            }
            if best.is_none_or(|(b, _)| rate < b) {
                best = Some((rate, candidate));
            }
        }
        self.scratch = scratch;
        match &mut self.history {
            Some((t, dies)) => {
                *t = obs.time;
                dies.clear();
                dies.extend_from_slice(&obs.rack_die_max);
            }
            None => self.history = Some((obs.time, obs.rack_die_max.clone())),
        }
        // Every candidate unevaluable: the preview oracle is dead (a
        // CRAH outage leaves the room with no steady state to solve
        // for). Holding would ride the excursion up — commit maximum
        // cooling instead and keep re-asserting it until the plant
        // recovers.
        let Some(coldest) = coldest else {
            if !self.in_safe_mode {
                self.in_safe_mode = true;
                self.safe_mode_entries += 1;
            }
            let floor = self
                .cfg
                .candidates
                .iter()
                .copied()
                .min_by(|a, b| a.degrees().total_cmp(&b.degrees()))
                .unwrap_or(obs.supply);
            let mut action = ControlAction::hold().with_supply(floor);
            if let Some(rpm) = self.safe_fan_floor.or(self.fan_floor) {
                action = action.with_fan_floor(rpm);
            }
            return action;
        };
        self.in_safe_mode = false;
        let supply = best.map_or(coldest, |(_, s)| s);
        let mut action = ControlAction::hold().with_supply(supply);
        if let Some(balancer) = &self.balancer {
            if let Some(flows) = balancer.balance(obs) {
                action = action.with_tile_flows(flows);
            }
        }
        if let Some(rpm) = self.fan_floor {
            action = action.with_fan_floor(rpm);
        }
        action
    }

    fn reset(&mut self) {
        self.history = None;
        self.trend.clear();
        self.in_safe_mode = false;
        self.safe_mode_entries = 0;
    }

    fn checkpoint_state(&self) -> Vec<f64> {
        // Times are encoded as whole milliseconds ([`SimDuration`]'s
        // exact representation), die temperatures as their `f64`
        // degrees: every field round-trips bit-exactly.
        let mut out = vec![
            f64::from(u8::from(self.in_safe_mode)),
            self.safe_mode_entries as f64,
        ];
        if let Some((t, dies)) = &self.history {
            out.push(1.0);
            out.push(t.as_millis() as f64);
            out.extend(dies.iter().map(|d| d.degrees()));
        } else {
            out.push(0.0);
        }
        out
    }

    fn restore_state(&mut self, state: &[f64]) {
        self.in_safe_mode = state.first().is_some_and(|&v| v != 0.0);
        self.safe_mode_entries = state.get(1).map_or(0, |&v| v as u64);
        // A genuine checkpoint carries only finite fields; anything
        // non-finite is foreign state and degrades to "no history"
        // rather than poisoning the predictor.
        self.history = match (state.get(2), state.get(3)) {
            (Some(&flag), Some(&millis))
                if flag != 0.0
                    && millis.is_finite()
                    && millis >= 0.0
                    && state[4..].iter().all(|d| d.is_finite()) =>
            {
                Some((
                    SimDuration::from_millis(millis as u64),
                    state[4..].iter().map(|&d| Celsius::new(d)).collect(),
                ))
            }
            _ => None,
        };
        self.trend.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> RoomObservation {
        let mut obs = RoomObservation::new();
        obs.supply = Celsius::new(18.0);
        obs.return_temp = Celsius::new(30.0);
        obs.recirculation = 0.2;
        obs.activity = Utilization::FULL;
        obs.it_power = Watts::new(20_000.0);
        obs.cooling_power = Watts::new(7_000.0);
        obs.cop = 2.7;
        obs.servers_per_rack = 16;
        obs.cold_aisles = vec![Celsius::new(20.0), Celsius::new(22.0)];
        obs.hot_aisles = vec![Celsius::new(32.0), Celsius::new(36.0)];
        obs.rack_die_max = vec![Celsius::new(66.0), Celsius::new(74.0)];
        obs.tile_flows = vec![AirFlow::new(3.0), AirFlow::new(3.0)];
        obs
    }

    #[test]
    fn observation_helpers() {
        let obs = snapshot();
        assert_eq!(obs.racks(), 2);
        assert_eq!(obs.hottest_rack(), 1);
        assert_eq!(obs.max_die_temperature(), Celsius::new(74.0));
        assert!((obs.max_inlet_lift() - 4.0).abs() < 1e-12);
        assert!((obs.total_tile_flow().value() - 6.0).abs() < 1e-12);
        assert_eq!(obs.total_power(), Watts::new(27_000.0));
        assert_eq!(RoomObservation::default(), RoomObservation::new());
    }

    #[test]
    fn action_builders() {
        assert!(ControlAction::hold().is_hold());
        let action = ControlAction::hold()
            .with_supply(Celsius::new(20.0))
            .with_fan_floor(Rpm::new(3000.0));
        assert!(!action.is_hold());
        assert_eq!(action.supply, Some(Celsius::new(20.0)));
        assert!(action.tile_flows.is_none());
    }

    #[test]
    fn fixed_controller_emits_once() {
        let mut ctl =
            FixedSupplyController::new(Celsius::new(17.0)).with_fan_floor(Rpm::new(2800.0));
        let obs = snapshot();
        let mut preview = AnalyticPreview::from_observation(&obs);
        let first = ctl.observe(&obs, &mut preview);
        assert_eq!(first.supply, Some(Celsius::new(17.0)));
        assert_eq!(first.fan_floor, Some(Rpm::new(2800.0)));
        assert!(ctl.observe(&obs, &mut preview).is_hold());
        ctl.reset();
        assert_eq!(
            ctl.observe(&obs, &mut preview).supply,
            Some(Celsius::new(17.0))
        );
        assert_eq!(ctl.supply(), Celsius::new(17.0));
        assert_eq!(ctl.name(), "fixed");
    }

    #[test]
    fn analytic_preview_shifts_linearly() {
        let obs = snapshot();
        let mut preview = AnalyticPreview::from_observation(&obs);
        let mut cold = Vec::new();
        let ret = preview
            .preview_supply(Celsius::new(21.0), &mut cold)
            .unwrap();
        assert_eq!(cold, vec![Celsius::new(23.0), Celsius::new(25.0)]);
        assert_eq!(ret, Celsius::new(33.0));
        assert!(preview
            .preview_supply(Celsius::new(f64::NAN), &mut cold)
            .is_err());
    }

    #[test]
    fn balancer_moves_flow_toward_the_hot_rack() {
        let obs = snapshot();
        let flows = TileFlowBalancer::new(0.02).balance(&obs).unwrap();
        // Rack 1 runs 8 °C hotter: it gains flow, rack 0 loses it.
        assert!(flows[1].value() > 3.0 && flows[0].value() < 3.0);
        // The total is conserved exactly.
        let total: f64 = flows.iter().map(|q| q.value()).sum();
        assert!((total - 6.0).abs() < 1e-12);
        // Inside the deadband the balancer holds.
        let mut flat = obs.clone();
        flat.rack_die_max = vec![Celsius::new(70.0), Celsius::new(70.1)];
        assert!(TileFlowBalancer::new(0.02).balance(&flat).is_none());
        // The floor clamp keeps every rack's flow positive even under
        // an extreme spread and an absurd gain, and the total still
        // holds exactly.
        let mut extreme = obs;
        extreme.rack_die_max = vec![Celsius::new(30.0), Celsius::new(95.0)];
        let clamped = TileFlowBalancer::new(10.0).balance(&extreme).unwrap();
        assert!(clamped.iter().all(|q| q.value() > 0.0));
        assert!(clamped[1] > clamped[0]);
        let total: f64 = clamped.iter().map(|q| q.value()).sum();
        assert!((total - 6.0).abs() < 1e-12);
    }

    #[test]
    fn lut_tracks_load_and_leakage_regime() {
        let mut ctl = LutSetPointController::paper_default();
        let mut obs = snapshot();
        let mut preview = AnalyticPreview::from_observation(&obs);
        // Full load: aim 21 °C; worst observed lift is 4 °C → 17 °C.
        let action = ctl.observe(&obs, &mut preview);
        assert_eq!(action.supply, Some(Celsius::new(17.0)));
        // Light load: aim 27 °C → 23 °C supply under the same lift.
        obs.activity = Utilization::saturating_from_fraction(0.2);
        let action = ctl.observe(&obs, &mut preview);
        assert_eq!(action.supply, Some(Celsius::new(23.0)));
        // A leakier room (bigger observed lift) derates the supply —
        // same table, different leakage regime.
        obs.cold_aisles = vec![Celsius::new(20.0), Celsius::new(26.0)];
        let action = ctl.observe(&obs, &mut preview);
        assert_eq!(action.supply, Some(Celsius::new(19.0)));
        // The clamp floor binds for absurd lifts.
        obs.cold_aisles = vec![Celsius::new(45.0), Celsius::new(45.0)];
        let action = ctl.observe(&obs, &mut preview);
        assert_eq!(action.supply, Some(Celsius::new(12.0)));
        assert_eq!(ctl.name(), "LUT");
        assert_eq!(ctl.decision_period(), SimDuration::from_secs(60));
    }

    #[test]
    fn mpc_trades_cop_against_leakage_under_the_cap() {
        let mut ctl = MpcSetPointController::paper_default();
        let mut obs = snapshot();
        let mut preview = AnalyticPreview::from_observation(&obs);
        let warm = ctl.observe(&obs, &mut preview).supply.unwrap();
        // Cool dies, flat leakage slope: the warm COP-friendly end wins.
        assert!(warm.degrees() >= 24.0, "got {}", warm.degrees());
        // Near the cap the feasibility constraint pins the choice cold:
        // dies at 84 °C leave ≤1 °C of headroom, so only candidates at
        // or below the current supply survive.
        obs.rack_die_max = vec![Celsius::new(80.0), Celsius::new(84.0)];
        let mut preview = AnalyticPreview::from_observation(&obs);
        let capped = ctl.observe(&obs, &mut preview).supply.unwrap();
        assert!(
            capped.degrees() < warm.degrees(),
            "cap must pull the choice down: {} vs {}",
            capped.degrees(),
            warm.degrees()
        );
        // Already over the cap: every candidate is infeasible and the
        // coldest one is committed for maximum headroom.
        obs.rack_die_max = vec![Celsius::new(95.0), Celsius::new(99.0)];
        let mut preview = AnalyticPreview::from_observation(&obs);
        let panic_cold = ctl.observe(&obs, &mut preview).supply.unwrap();
        assert_eq!(panic_cold, Celsius::new(14.0));
        // All-infeasible is not safe mode: the oracle still answered.
        assert_eq!(ctl.safe_mode_entries(), 0);
        assert_eq!(ctl.name(), "MPC");
    }

    /// A preview oracle with no steady state to report — what the live
    /// room's oracle degrades into during a full CRAH outage.
    struct DeadPreview;

    impl SupplyPreview for DeadPreview {
        fn preview_supply(
            &mut self,
            _supply: Celsius,
            _cold_aisles: &mut Vec<Celsius>,
        ) -> Result<Celsius, CoreError> {
            Err(CoreError::Invalid {
                what: "no steady state".to_owned(),
            })
        }
    }

    #[test]
    fn typed_constructor_errors() {
        assert_eq!(
            LutSetPointController::try_new(Vec::new()).unwrap_err(),
            ControlError::EmptyLut
        );
        let mut cfg = MpcConfig::paper_default();
        cfg.candidates.clear();
        assert_eq!(
            MpcSetPointController::try_new(cfg).unwrap_err(),
            ControlError::NoCandidates
        );
    }

    #[test]
    fn dead_preview_drives_controllers_into_safe_mode() {
        let obs = snapshot();

        let mut lut = LutSetPointController::paper_default();
        let action = lut.observe(&obs, &mut DeadPreview);
        assert_eq!(action.supply, Some(Celsius::new(12.0)));
        assert_eq!(action.fan_floor, Some(Rpm::new(4200.0)));
        // Re-entering while already in safe mode is not a new entry…
        lut.observe(&obs, &mut DeadPreview);
        assert_eq!(lut.safe_mode_entries(), 1);
        // …and a recovered oracle resumes normal decisions.
        let mut preview = AnalyticPreview::from_observation(&obs);
        let recovered = lut.observe(&obs, &mut preview);
        assert_eq!(recovered.supply, Some(Celsius::new(17.0)));
        assert_eq!(recovered.fan_floor, None);
        assert_eq!(lut.safe_mode_entries(), 1);
        lut.reset();
        assert_eq!(lut.safe_mode_entries(), 0);

        let mut mpc = MpcSetPointController::paper_default();
        let action = mpc.observe(&obs, &mut DeadPreview);
        assert_eq!(action.supply, Some(Celsius::new(14.0)));
        assert_eq!(action.fan_floor, Some(Rpm::new(4200.0)));
        mpc.observe(&obs, &mut DeadPreview);
        assert_eq!(mpc.safe_mode_entries(), 1);
        let mut preview = AnalyticPreview::from_observation(&obs);
        let recovered = mpc.observe(&obs, &mut preview);
        assert!(recovered.supply.unwrap().degrees() > 14.0);
        assert_eq!(mpc.safe_mode_entries(), 1);

        // Safe mode with the fan override disabled leaves fans alone.
        let mut quiet = MpcSetPointController::paper_default().with_safe_fan_floor(None);
        let action = quiet.observe(&obs, &mut DeadPreview);
        assert_eq!(action.supply, Some(Celsius::new(14.0)));
        assert_eq!(action.fan_floor, None);
    }

    #[test]
    fn controller_state_round_trips_exactly() {
        let mut obs = snapshot();
        let mut preview = AnalyticPreview::from_observation(&obs);

        // MPC: two observations build trend history; a restored twin
        // must make the identical next decision.
        let mut mpc = MpcSetPointController::paper_default();
        obs.time = SimDuration::from_secs(60);
        mpc.observe(&obs, &mut preview);
        obs.time = SimDuration::from_secs(120);
        obs.rack_die_max = vec![Celsius::new(68.0), Celsius::new(76.0)];
        mpc.observe(&obs, &mut preview);
        let state = mpc.checkpoint_state();
        let mut twin = MpcSetPointController::paper_default();
        twin.restore_state(&state);
        obs.time = SimDuration::from_secs(180);
        obs.rack_die_max = vec![Celsius::new(70.0), Celsius::new(79.0)];
        let a = mpc.observe(&obs, &mut preview);
        let b = twin.observe(&obs, &mut preview);
        assert_eq!(a, b);
        assert_eq!(twin.checkpoint_state(), mpc.checkpoint_state());

        // Fixed: the fired/pending latch survives the round trip.
        let mut fixed = FixedSupplyController::new(Celsius::new(17.0));
        fixed.observe(&obs, &mut preview);
        let mut twin = FixedSupplyController::new(Celsius::new(17.0));
        twin.restore_state(&fixed.checkpoint_state());
        assert!(twin.observe(&obs, &mut preview).is_hold());

        // Junk input falls back to freshly-reset state, not a panic.
        let mut lut = LutSetPointController::paper_default();
        lut.restore_state(&[]);
        assert_eq!(lut.safe_mode_entries(), 0);
        let mut mpc = MpcSetPointController::paper_default();
        mpc.restore_state(&[1.0]);
        assert_eq!(mpc.safe_mode_entries(), 0);
    }
}
