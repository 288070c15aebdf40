//! Thermal-aware job scheduling: *where* work runs, co-optimized with
//! the cooling loop that decides *how cold* the room runs.
//!
//! The paper's control layer ([`crate::control`]) only moves the
//! cooling side of the energy balance — supply set-points, tile flows,
//! fan floors. This module adds the computing side: a typed
//! workload-placement API ([`PlacementAction`] through
//! [`Room::apply_placement`]) and a scheduler layer that decides the
//! per-rack placement a [`Room`] runs. Because leakage grows
//! exponentially with die temperature and the floor's tile-flow
//! distribution leaves far corners inlet-starved, *where* a job lands
//! changes both the IT energy (leakage) and the CRAH energy (the
//! hot-spot that pins the supply set-point) — the joint
//! computing+cooling lever of Arroba et al. and Van Damme et al.
//!
//! Three policies ship:
//!
//! - [`RoundRobinScheduler`] — the thermally-blind baseline: next free
//!   rack in cyclic order.
//! - [`ThermalGreedyScheduler`] — coldest-first marginal-leakage
//!   placement: each job lands on the feasible rack (free slot, die
//!   margin, power budget) where it adds the least projected leakage.
//! - [`LocalSearchScheduler`] — a metaheuristic refinement pass à la
//!   Arroba et al.: seeds from the greedy solution, then applies
//!   best-improvement relocation moves until the projected leakage
//!   cost stops falling.
//!
//! [`ScheduledLoop`] co-runs a [`RoomScheduler`] and a
//! [`RoomController`] against one [`Room`] in a single deterministic
//! loop: both decide in the serial section between steps, so the
//! trajectory is bit-identical for any `LEAKCTL_THREADS` plan, like
//! every other layer.
//!
//! # Example
//!
//! ```
//! use leakctl::room::{Room, RoomConfig};
//! use leakctl::schedule::{
//!     JobStream, JobStreamConfig, RoundRobinScheduler, ScheduledLoop,
//! };
//! use leakctl::control::FixedSupplyController;
//! use leakctl_units::{Celsius, SimDuration};
//!
//! # fn main() -> Result<(), leakctl::CoreError> {
//! let mut room = Room::new(RoomConfig::new(1, 2, 4))?;
//! let stream = JobStream::generate(JobStreamConfig::new(0.05, 42))?;
//! let mut the_loop = ScheduledLoop::new(stream);
//! let mut scheduler = RoundRobinScheduler::new(SimDuration::from_secs(10));
//! let mut controller = FixedSupplyController::new(Celsius::new(18.0));
//! let stats = the_loop.run(
//!     &mut room,
//!     &mut scheduler,
//!     &mut controller,
//!     SimDuration::from_secs(1),
//!     60,
//! )?;
//! assert_eq!(stats.placed + stats.rejected, stats.sched_assignments);
//! # Ok(())
//! # }
//! ```

use leakctl_power::EmpiricalLeakage;
use leakctl_sim::SimRng;
use leakctl_units::{Celsius, SimDuration, Utilization, Watts};

use crate::control::{RoomController, RoomObservation};
use crate::drive::{Drive, Stages};
use crate::error::CoreError;
use crate::room::Room;

// ---------------------------------------------------------------------------
// Placement action
// ---------------------------------------------------------------------------

/// A validated, atomically applied workload placement: one utilization
/// fraction per rack, plus (optionally) one power budget per rack —
/// the placement-side twin of
/// [`ControlAction`](crate::control::ControlAction).
///
/// [`Room::apply_placement`] validates the whole action first and only
/// then touches the room, so a rejected placement never leaves it
/// half-placed. Utilizations are carried as raw fractions so
/// validation happens at the commit boundary (finite, within
/// `[0, 1]`, one per rack) instead of silently saturating upstream.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementAction {
    /// Commanded per-rack utilization fractions, rack order.
    pub utilizations: Vec<f64>,
    /// Per-rack power budgets (`None`: hold the room's current
    /// budgets; inner `None`: that rack runs unbudgeted).
    pub power_budgets: Option<Vec<Option<Watts>>>,
}

impl PlacementAction {
    /// Every rack at the same fraction, budgets held.
    #[must_use]
    pub fn uniform(racks: usize, fraction: f64) -> Self {
        Self {
            utilizations: vec![fraction; racks],
            power_budgets: None,
        }
    }

    /// A placement from per-rack fractions, budgets held.
    #[must_use]
    pub fn from_fractions(utilizations: Vec<f64>) -> Self {
        Self {
            utilizations,
            power_budgets: None,
        }
    }

    /// A placement from already-validated utilizations, budgets held.
    #[must_use]
    pub fn from_utilizations(utilizations: &[Utilization]) -> Self {
        Self {
            utilizations: utilizations.iter().map(|u| u.as_fraction()).collect(),
            power_budgets: None,
        }
    }

    /// Attaches per-rack power budgets (see
    /// [`power_budgets`](Self::power_budgets)).
    #[must_use]
    pub fn with_power_budgets(mut self, budgets: Vec<Option<Watts>>) -> Self {
        self.power_budgets = Some(budgets);
        self
    }

    /// Number of racks this placement commands.
    #[must_use]
    pub fn racks(&self) -> usize {
        self.utilizations.len()
    }
}

// ---------------------------------------------------------------------------
// Jobs and job streams
// ---------------------------------------------------------------------------

/// One unit of work: occupies one server slot on whichever rack the
/// scheduler picks, driving that slot at `utilization` from `arrival`
/// for `duration`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Submission time (simulated, measured on the scheduled loop's
    /// own clock).
    pub arrival: SimDuration,
    /// Run length once placed.
    pub duration: SimDuration,
    /// Per-slot utilization while running.
    pub utilization: Utilization,
}

/// Parameters of the seeded synthetic [`JobStream`] generator:
/// Poisson arrivals (exponential inter-arrival times), exponential
/// service times above a floor, and uniformly distributed per-job
/// utilization — the standard trace shape of cloud scheduling studies.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStreamConfig {
    /// Mean arrival rate, jobs per simulated second.
    pub arrival_rate: f64,
    /// Mean job duration (must exceed
    /// [`min_duration`](Self::min_duration)).
    pub mean_duration: SimDuration,
    /// Shortest possible job.
    pub min_duration: SimDuration,
    /// Per-job utilization is uniform in
    /// `[utilization_lo, utilization_hi]`.
    pub utilization_lo: f64,
    /// Upper utilization bound.
    pub utilization_hi: f64,
    /// Generator seed: the same seed replays the same trace exactly.
    pub seed: u64,
}

impl JobStreamConfig {
    /// A churny default: `arrival_rate` jobs/s, ten-minute mean
    /// duration with a one-minute floor, utilization uniform in
    /// `[0.5, 1.0]`.
    #[must_use]
    pub fn new(arrival_rate: f64, seed: u64) -> Self {
        Self {
            arrival_rate,
            mean_duration: SimDuration::from_mins(10),
            min_duration: SimDuration::from_mins(1),
            utilization_lo: 0.5,
            utilization_hi: 1.0,
            seed,
        }
    }

    fn validate(&self) -> Result<(), CoreError> {
        let invalid = |what: &str| CoreError::Invalid {
            what: what.to_owned(),
        };
        if !(self.arrival_rate.is_finite() && self.arrival_rate > 0.0) {
            return Err(invalid("job arrival rate must be positive"));
        }
        if self.mean_duration <= self.min_duration {
            return Err(invalid("mean job duration must exceed the minimum"));
        }
        let lo = self.utilization_lo;
        let hi = self.utilization_hi;
        if !(lo.is_finite() && hi.is_finite() && (0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0)
        {
            return Err(invalid(
                "job utilization range must satisfy 0 <= lo <= hi <= 1",
            ));
        }
        Ok(())
    }
}

#[derive(Debug)]
enum StreamSource {
    /// An explicit trace, consumed front to back.
    Trace(std::vec::IntoIter<Job>),
    /// The seeded synthetic generator.
    Generator {
        config: JobStreamConfig,
        arrivals: SimRng,
        durations: SimRng,
        utilizations: SimRng,
        /// Running arrival clock, seconds.
        clock: f64,
    },
}

/// A trace-driven stream of [`Job`]s in arrival order — either an
/// explicit trace or the seeded deterministic generator
/// ([`JobStreamConfig`]). Pull-based: [`JobStream::pop_arrived`] hands
/// the scheduled loop every job that has arrived by `now`.
#[derive(Debug)]
pub struct JobStream {
    source: StreamSource,
    /// One-job lookahead so arrival checks never consume the source.
    next: Option<Job>,
}

impl JobStream {
    /// A stream replaying `jobs` (sorted by arrival on construction,
    /// stable for equal arrivals).
    #[must_use]
    pub fn from_trace(mut jobs: Vec<Job>) -> Self {
        jobs.sort_by_key(|j| j.arrival);
        let mut source = StreamSource::Trace(jobs.into_iter());
        let next = Self::pull(&mut source);
        Self { source, next }
    }

    /// A seeded synthetic stream (see [`JobStreamConfig`]). The same
    /// config replays the same trace bit-for-bit: arrivals, durations
    /// and utilizations come from independent forked
    /// [`SimRng`] streams with no wall-clock anywhere.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for a non-positive rate, a mean
    /// duration at or below the floor, or a malformed utilization
    /// range.
    pub fn generate(config: JobStreamConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let mut root = SimRng::seed(config.seed);
        let mut source = StreamSource::Generator {
            arrivals: root.fork("jobstream-arrivals"),
            durations: root.fork("jobstream-durations"),
            utilizations: root.fork("jobstream-utilizations"),
            config,
            clock: 0.0,
        };
        let next = Self::pull(&mut source);
        Ok(Self { source, next })
    }

    /// The next job's arrival time, if the stream is not exhausted
    /// (generated streams never are).
    #[must_use]
    pub fn peek_arrival(&self) -> Option<SimDuration> {
        self.next.map(|j| j.arrival)
    }

    /// Moves every job with `arrival <= now` into `out` (appended in
    /// arrival order).
    pub fn pop_arrived(&mut self, now: SimDuration, out: &mut Vec<Job>) {
        while let Some(job) = self.next {
            if job.arrival > now {
                break;
            }
            out.push(job);
            self.next = Self::pull(&mut self.source);
        }
    }

    fn pull(source: &mut StreamSource) -> Option<Job> {
        match source {
            StreamSource::Trace(iter) => iter.next(),
            StreamSource::Generator {
                config,
                arrivals,
                durations,
                utilizations,
                clock,
            } => {
                *clock += arrivals.next_exponential(config.arrival_rate);
                let min_s = config.min_duration.as_secs_f64();
                let extra_mean = config.mean_duration.as_secs_f64() - min_s;
                let duration = min_s + durations.next_exponential(1.0 / extra_mean);
                let span = config.utilization_hi - config.utilization_lo;
                let util = config.utilization_lo + utilizations.next_f64() * span;
                Some(Job {
                    arrival: SimDuration::from_secs_f64(*clock),
                    duration: SimDuration::from_secs_f64(duration),
                    utilization: Utilization::saturating_from_fraction(util),
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Load bookkeeping
// ---------------------------------------------------------------------------

/// The occupancy view a [`RoomScheduler`] places against: per-rack
/// slot counts and resident demand, maintained by the
/// [`ScheduledLoop`] as jobs start and finish.
#[derive(Debug, Clone)]
pub struct RackLoads {
    /// Server slots per rack (uniform across the floor).
    servers_per_rack: usize,
    /// Occupied slots per rack.
    slots: Vec<usize>,
    /// Resident demand per rack, in server-equivalents (the sum of
    /// resident jobs' utilization fractions).
    demand: Vec<f64>,
}

impl RackLoads {
    /// An empty floor of `racks` racks of `servers_per_rack` slots.
    #[must_use]
    pub fn new(racks: usize, servers_per_rack: usize) -> Self {
        Self {
            servers_per_rack,
            slots: vec![0; racks],
            demand: vec![0.0; racks],
        }
    }

    /// Number of racks.
    #[must_use]
    pub fn racks(&self) -> usize {
        self.slots.len()
    }

    /// Server slots per rack.
    #[must_use]
    pub fn servers_per_rack(&self) -> usize {
        self.servers_per_rack
    }

    /// Free slots on rack `rack`.
    #[must_use]
    pub fn free_slots(&self, rack: usize) -> usize {
        self.servers_per_rack.saturating_sub(self.slots[rack])
    }

    /// Resident demand on rack `rack`, in server-equivalents.
    #[must_use]
    pub fn demand(&self, rack: usize) -> f64 {
        self.demand[rack]
    }

    /// Rack `rack`'s demand as a utilization fraction of its capacity.
    #[must_use]
    pub fn utilization(&self, rack: usize) -> f64 {
        (self.demand[rack] / self.servers_per_rack.max(1) as f64).clamp(0.0, 1.0)
    }

    fn start(&mut self, rack: usize, job: &Job) {
        self.slots[rack] += 1;
        self.demand[rack] += job.utilization.as_fraction();
    }

    fn finish(&mut self, rack: usize, job_utilization: f64) {
        self.slots[rack] = self.slots[rack].saturating_sub(1);
        // Subtractive churn cannot push a rack's demand negative.
        self.demand[rack] = (self.demand[rack] - job_utilization).max(0.0);
    }
}

// ---------------------------------------------------------------------------
// Scheduler traits
// ---------------------------------------------------------------------------

/// Rack-level admission: turns one rack's resident demand into the
/// activity its fleet is commanded to run. The seam where a rack-local
/// policy (fair-share, frequency capping, slot consolidation) plugs in
/// under any room-level placement policy.
pub trait RackScheduler {
    /// Policy name for reports.
    fn name(&self) -> &str;

    /// Commanded activity fraction for a rack holding `demand`
    /// server-equivalents of work across `servers` slots. Must return
    /// a finite fraction in `[0, 1]` — the scheduled loop feeds it
    /// straight into a [`PlacementAction`].
    fn activity(&self, demand: f64, servers: usize) -> f64;
}

/// The default [`RackScheduler`]: demand spread evenly over the
/// rack's servers (every slot runs the rack's mean utilization, the
/// granularity of [`Room`]'s per-rack fleet stepping).
#[derive(Debug, Clone, Copy, Default)]
pub struct FairShareRack;

impl RackScheduler for FairShareRack {
    fn name(&self) -> &str {
        "fair-share"
    }

    fn activity(&self, demand: f64, servers: usize) -> f64 {
        (demand / servers.max(1) as f64).clamp(0.0, 1.0)
    }
}

/// Room-level placement policy: every
/// [`decision_period`](Self::decision_period) the [`ScheduledLoop`]
/// hands it the queue of pending jobs, the current occupancy and a
/// fresh [`RoomObservation`], and it returns one rack assignment (or
/// `None`: stay queued) per pending job.
///
/// The loop re-validates every assignment (rack in range, free slot)
/// and rejects infeasible ones deterministically, so a policy bug
/// cannot oversubscribe a rack.
pub trait RoomScheduler {
    /// Policy name for reports.
    fn name(&self) -> &str;

    /// How often the policy re-plans; between decisions the resident
    /// placement keeps driving the floor.
    fn decision_period(&self) -> SimDuration;

    /// One assignment per entry of `pending`: `Some(rack)` places the
    /// job now, `None` leaves it queued for the next decision.
    fn place(
        &mut self,
        obs: &RoomObservation,
        pending: &[Job],
        loads: &RackLoads,
    ) -> Vec<Option<usize>>;

    /// Clears internal state before a fresh run.
    fn reset(&mut self) {}
}

// ---------------------------------------------------------------------------
// Round-robin baseline
// ---------------------------------------------------------------------------

/// The thermally-blind baseline: each job goes to the next rack in
/// cyclic order with a free slot. Spreads work uniformly — including
/// into the inlet-starved far corners a thermal-aware policy avoids.
#[derive(Debug, Clone)]
pub struct RoundRobinScheduler {
    period: SimDuration,
    cursor: usize,
}

impl RoundRobinScheduler {
    /// A round-robin policy deciding every `period`.
    #[must_use]
    pub fn new(period: SimDuration) -> Self {
        Self { period, cursor: 0 }
    }
}

impl RoomScheduler for RoundRobinScheduler {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn decision_period(&self) -> SimDuration {
        self.period
    }

    fn place(
        &mut self,
        _obs: &RoomObservation,
        pending: &[Job],
        loads: &RackLoads,
    ) -> Vec<Option<usize>> {
        let racks = loads.racks();
        let mut free: Vec<usize> = (0..racks).map(|r| loads.free_slots(r)).collect();
        pending
            .iter()
            .map(|_| {
                for k in 0..racks {
                    let r = (self.cursor + k) % racks;
                    if free[r] > 0 {
                        free[r] -= 1;
                        self.cursor = (r + 1) % racks;
                        return Some(r);
                    }
                }
                None
            })
            .collect()
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }
}

// ---------------------------------------------------------------------------
// Thermal-greedy policy
// ---------------------------------------------------------------------------

/// Tuning for [`ThermalGreedyScheduler`] (shared by
/// [`LocalSearchScheduler`], which refines the same cost model).
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalGreedyConfig {
    /// Decision period.
    pub period: SimDuration,
    /// Projected hottest-die rise per unit of added rack utilization
    /// (°C per fraction) — the first-order thermal response the cost
    /// model plans with. The paper twin rises ≈ 30 °C from idle to
    /// full at the bench fan floor.
    pub die_rise: f64,
    /// Leakage curve the marginal-cost ranking uses.
    pub leakage: EmpiricalLeakage,
    /// Per-rack projected power ceiling (`None`: unbudgeted). A job is
    /// only placed where current rack power plus its projected draw
    /// stays under the ceiling.
    pub power_budget: Option<Watts>,
    /// Projected active power of one full-utilization job, for the
    /// budget headroom check.
    pub job_power: Watts,
    /// Safety margin (°C) kept below the observed
    /// [`die_limit`](crate::control::RoomObservation::die_limit) when
    /// projecting: a job is not placed where it would push the
    /// projected hottest die within this margin of the cap.
    pub margin: f64,
}

impl ThermalGreedyConfig {
    /// Paper-shaped defaults: 15 s decisions, 30 °C full-swing die
    /// rise, the paper's fitted leakage curve, no power budget, a
    /// 230 W per-job projection and a 1 °C planning margin.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            period: SimDuration::from_secs(15),
            die_rise: 30.0,
            leakage: EmpiricalLeakage::paper_fit(),
            power_budget: None,
            job_power: Watts::new(230.0),
            margin: 1.0,
        }
    }
}

/// Coldest-first, leakage-aware greedy placement: each pending job
/// lands on the feasible rack where it adds the least projected
/// leakage power. Because leakage is convex in temperature, the
/// marginal cost of a rack grows as it fills and warms, so the policy
/// self-balances: it packs the coldest (best-supplied) racks first and
/// spills toward warmer ones as projected margins shrink.
///
/// Feasibility per rack: a free slot, projected hottest die at least
/// [`margin`](ThermalGreedyConfig::margin) under the observed cap, and
/// (when budgeted) projected power under the ceiling. Jobs with no
/// feasible rack stay queued.
#[derive(Debug, Clone)]
pub struct ThermalGreedyScheduler {
    config: ThermalGreedyConfig,
}

impl ThermalGreedyScheduler {
    /// A greedy policy with `config`.
    #[must_use]
    pub fn new(config: ThermalGreedyConfig) -> Self {
        Self { config }
    }

    /// The config in force.
    #[must_use]
    pub fn config(&self) -> &ThermalGreedyConfig {
        &self.config
    }
}

/// Per-rack projection state shared by the greedy pass and the
/// local-search refinement.
#[derive(Debug, Clone)]
struct Projection {
    /// Free slots per rack.
    free: Vec<usize>,
    /// Projected hottest die per rack (°C).
    die: Vec<f64>,
    /// Projected IT power per rack (W).
    power: Vec<f64>,
    /// Observed thermal cap (°C).
    die_limit: f64,
}

impl Projection {
    fn new(obs: &RoomObservation, loads: &RackLoads) -> Self {
        let racks = loads.racks();
        Self {
            free: (0..racks).map(|r| loads.free_slots(r)).collect(),
            die: (0..racks)
                .map(|r| obs.rack_die_max.get(r).map_or(0.0, |c| c.degrees()))
                .collect(),
            power: (0..racks)
                .map(|r| obs.rack_it_power.get(r).map_or(0.0, |p| p.value()))
                .collect(),
            die_limit: obs.die_limit.degrees(),
        }
    }

    /// The projected die rise of adding `job` to a rack.
    fn rise(&self, cfg: &ThermalGreedyConfig, loads: &RackLoads, job: &Job) -> f64 {
        cfg.die_rise * job.utilization.as_fraction() / loads.servers_per_rack().max(1) as f64
    }

    fn feasible(&self, cfg: &ThermalGreedyConfig, rack: usize, rise: f64, job: &Job) -> bool {
        if self.free[rack] == 0 {
            return false;
        }
        if self.die[rack] + rise > self.die_limit - cfg.margin {
            return false;
        }
        if let Some(budget) = cfg.power_budget {
            let projected =
                self.power[rack] + job.utilization.as_fraction() * cfg.job_power.value();
            if projected > budget.value() {
                return false;
            }
        }
        true
    }

    /// Marginal leakage (W) of warming a whole rack by `rise` from its
    /// projected die temperature — the greedy ranking key. Convex in
    /// temperature, so warm racks price themselves out.
    fn marginal_leakage(
        &self,
        cfg: &ThermalGreedyConfig,
        loads: &RackLoads,
        rack: usize,
        rise: f64,
    ) -> f64 {
        let spr = loads.servers_per_rack() as f64;
        let before = cfg.leakage.power(Celsius::new(self.die[rack])).value();
        let after = cfg
            .leakage
            .power(Celsius::new(self.die[rack] + rise))
            .value();
        spr * (after - before)
    }

    fn commit(&mut self, cfg: &ThermalGreedyConfig, rack: usize, rise: f64, job: &Job) {
        self.free[rack] -= 1;
        self.die[rack] += rise;
        self.power[rack] += job.utilization.as_fraction() * cfg.job_power.value();
    }

    fn uncommit(&mut self, cfg: &ThermalGreedyConfig, rack: usize, rise: f64, job: &Job) {
        self.free[rack] += 1;
        self.die[rack] -= rise;
        self.power[rack] -= job.utilization.as_fraction() * cfg.job_power.value();
    }
}

fn greedy_place(
    cfg: &ThermalGreedyConfig,
    obs: &RoomObservation,
    pending: &[Job],
    loads: &RackLoads,
) -> (Vec<Option<usize>>, Projection) {
    let mut proj = Projection::new(obs, loads);
    let racks = loads.racks();
    let assignments = pending
        .iter()
        .map(|job| {
            let rise = proj.rise(cfg, loads, job);
            let mut best: Option<(usize, f64)> = None;
            for r in 0..racks {
                if !proj.feasible(cfg, r, rise, job) {
                    continue;
                }
                let cost = proj.marginal_leakage(cfg, loads, r, rise);
                if best.is_none_or(|(_, b)| cost < b) {
                    best = Some((r, cost));
                }
            }
            best.map(|(r, _)| {
                proj.commit(cfg, r, rise, job);
                r
            })
        })
        .collect();
    (assignments, proj)
}

impl RoomScheduler for ThermalGreedyScheduler {
    fn name(&self) -> &str {
        "thermal-greedy"
    }

    fn decision_period(&self) -> SimDuration {
        self.config.period
    }

    fn place(
        &mut self,
        obs: &RoomObservation,
        pending: &[Job],
        loads: &RackLoads,
    ) -> Vec<Option<usize>> {
        greedy_place(&self.config, obs, pending, loads).0
    }
}

// ---------------------------------------------------------------------------
// Local-search metaheuristic
// ---------------------------------------------------------------------------

/// Metaheuristic refinement à la Arroba et al.: seeds from the greedy
/// solution, then runs best-improvement *relocation* local search —
/// each round evaluates moving every newly placed job to every other
/// feasible rack under the projected-leakage cost and applies the
/// single best strictly-improving move, until no move improves or
/// 32 rounds have run.
///
/// The greedy pass is myopic (each job priced at placement time, in
/// queue order); relocation repairs the order-dependence, so the
/// refined solution's projected cost is never worse than the seed's.
/// Fully deterministic: moves are scanned in (job, rack) index order
/// and ties keep the incumbent.
#[derive(Debug, Clone)]
pub struct LocalSearchScheduler {
    config: ThermalGreedyConfig,
}

/// Improvement rounds [`LocalSearchScheduler`] runs per decision at
/// most.
const MAX_ROUNDS: usize = 32;

impl LocalSearchScheduler {
    /// A local-search policy refining the greedy seed under `config`,
    /// with at most 32 improvement rounds per decision.
    #[must_use]
    pub fn new(config: ThermalGreedyConfig) -> Self {
        Self { config }
    }

    /// The config in force.
    #[must_use]
    pub fn config(&self) -> &ThermalGreedyConfig {
        &self.config
    }
}

impl RoomScheduler for LocalSearchScheduler {
    fn name(&self) -> &str {
        "local-search"
    }

    fn decision_period(&self) -> SimDuration {
        self.config.period
    }

    fn place(
        &mut self,
        obs: &RoomObservation,
        pending: &[Job],
        loads: &RackLoads,
    ) -> Vec<Option<usize>> {
        let cfg = &self.config;
        let (mut assignments, mut proj) = greedy_place(cfg, obs, pending, loads);
        for _ in 0..MAX_ROUNDS {
            // Best-improvement scan: the single (job, rack) relocation
            // with the largest projected-leakage drop this round.
            let mut best: Option<(usize, usize, f64)> = None;
            for (i, assigned) in assignments.iter().enumerate() {
                let Some(from) = *assigned else { continue };
                let job = &pending[i];
                let rise = proj.rise(cfg, loads, job);
                // Cost released by lifting the job off its rack.
                proj.uncommit(cfg, from, rise, job);
                let released = proj.marginal_leakage(cfg, loads, from, rise);
                for to in 0..loads.racks() {
                    if to == from || !proj.feasible(cfg, to, rise, job) {
                        continue;
                    }
                    let added = proj.marginal_leakage(cfg, loads, to, rise);
                    let delta = added - released;
                    if delta < -1e-9 && best.is_none_or(|(_, _, b)| delta < b) {
                        best = Some((i, to, delta));
                    }
                }
                proj.commit(cfg, from, rise, job);
            }
            let Some((i, to, _)) = best else { break };
            let job = &pending[i];
            let rise = proj.rise(cfg, loads, job);
            let from = assignments[i].unwrap_or(to);
            proj.uncommit(cfg, from, rise, job);
            proj.commit(cfg, to, rise, job);
            assignments[i] = Some(to);
        }
        assignments
    }
}

// ---------------------------------------------------------------------------
// The scheduled loop
// ---------------------------------------------------------------------------

/// Counters from a [`ScheduledLoop`] run (cumulative across chunked
/// [`run`](ScheduledLoop::run) calls).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleStats {
    /// Jobs pulled from the stream.
    pub submitted: u64,
    /// Jobs committed to a rack.
    pub placed: u64,
    /// Scheduler assignments the loop rejected as infeasible (bad rack
    /// index or no free slot at commit time); the jobs stayed queued.
    pub rejected: u64,
    /// Total assignments the scheduler returned (`Some` entries).
    pub sched_assignments: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Scheduler consultations.
    pub sched_decisions: u64,
    /// Controller consultations.
    pub ctrl_decisions: u64,
    /// Controller decisions that commanded a change.
    pub ctrl_applied: u64,
    /// Most jobs ever waiting in the queue after a decision.
    pub peak_pending: usize,
    /// Hottest die seen after any step.
    pub peak_die: Celsius,
}

impl Default for ScheduleStats {
    fn default() -> Self {
        Self {
            submitted: 0,
            placed: 0,
            rejected: 0,
            sched_assignments: 0,
            completed: 0,
            sched_decisions: 0,
            ctrl_decisions: 0,
            ctrl_applied: 0,
            peak_pending: 0,
            peak_die: Celsius::new(f64::NEG_INFINITY),
        }
    }
}

/// A job resident on a rack.
#[derive(Debug, Clone, Copy)]
struct ActiveJob {
    end: SimDuration,
    rack: usize,
    utilization: f64,
}

/// Co-runs a [`RoomScheduler`] and a [`RoomController`] against one
/// [`Room`] in a single deterministic loop — the scheduling equivalent
/// of [`Room::run_controlled`].
///
/// Each step, on the loop's own clock: finished jobs retire, newly
/// arrived jobs join the queue, the scheduler re-plans on its own
/// decision period (assignments are re-validated and committed
/// all-or-nothing per job), the refreshed placement is applied through
/// [`Room::apply_placement`], the controller decides on *its* period
/// through [`Room::decide`], and the room advances with
/// [`Room::step_placed`]. All decisions happen in the serial section
/// between steps, so the trajectory is bit-identical for any
/// `LEAKCTL_THREADS` plan.
///
/// State (queue, resident jobs, clock, both decision cadences, stats)
/// persists across [`run`](Self::run) calls, so `run(a)` followed by
/// `run(b)` is exactly `run(a + b)`. Chunked [`Room::run_controlled`]
/// calls differ: each call re-decides at its first step.
#[derive(Debug)]
pub struct ScheduledLoop {
    queue: JobQueue,
    loads: Option<RackLoads>,
    drive: Drive,
    obs: RoomObservation,
}

/// The scheduled loop's job-side state.
#[derive(Debug)]
struct JobQueue {
    stream: JobStream,
    pending: Vec<Job>,
    active: Vec<ActiveJob>,
    stats: ScheduleStats,
    action: PlacementAction,
}

/// The scheduling stages over one room: retirement and admission, the
/// scheduler, and the fair-share placement refresh.
struct Scheduling<'a> {
    queue: &'a mut JobQueue,
    loads: &'a mut RackLoads,
    scheduler: &'a mut dyn RoomScheduler,
}

impl Stages<Room> for Scheduling<'_> {
    fn events(&mut self, _room: &mut Room, now: SimDuration) -> Result<(), CoreError> {
        // Finished jobs retire (their demand leaves the floor).
        let queue = &mut *self.queue;
        let loads = &mut *self.loads;
        let mut completed = 0;
        queue.active.retain(|job| {
            if job.end <= now {
                loads.finish(job.rack, job.utilization);
                completed += 1;
                false
            } else {
                true
            }
        });
        queue.stats.completed += completed;

        // Arrivals join the queue.
        let before = queue.pending.len();
        queue.stream.pop_arrived(now, &mut queue.pending);
        queue.stats.submitted += (queue.pending.len() - before) as u64;
        Ok(())
    }

    fn schedule_period(&self) -> Option<SimDuration> {
        Some(self.scheduler.decision_period())
    }

    fn schedule(
        &mut self,
        room: &mut Room,
        now: SimDuration,
        obs: &mut RoomObservation,
    ) -> Result<(), CoreError> {
        let queue = &mut *self.queue;
        let loads = &mut *self.loads;
        queue.stats.sched_decisions += 1;
        room.observe_into(obs);
        let assignments = self.scheduler.place(obs, &queue.pending, loads);
        if assignments.len() != queue.pending.len() {
            return Err(CoreError::Invalid {
                what: format!(
                    "scheduler `{}` returned {} assignments for {} pending jobs",
                    self.scheduler.name(),
                    assignments.len(),
                    queue.pending.len()
                ),
            });
        }
        // Commit feasible assignments; infeasible ones are rejected
        // deterministically and the job stays queued.
        let mut kept = 0;
        for (i, assignment) in assignments.iter().enumerate() {
            let job = queue.pending[i];
            match *assignment {
                Some(rack) if rack < loads.racks() && loads.free_slots(rack) > 0 => {
                    queue.stats.sched_assignments += 1;
                    queue.stats.placed += 1;
                    loads.start(rack, &job);
                    queue.active.push(ActiveJob {
                        end: now + job.duration,
                        rack,
                        utilization: job.utilization.as_fraction(),
                    });
                }
                Some(_) => {
                    queue.stats.sched_assignments += 1;
                    queue.stats.rejected += 1;
                    queue.pending[kept] = job;
                    kept += 1;
                }
                None => {
                    queue.pending[kept] = job;
                    kept += 1;
                }
            }
        }
        queue.pending.truncate(kept);
        queue.stats.peak_pending = queue.stats.peak_pending.max(queue.pending.len());
        Ok(())
    }

    fn place(&mut self, room: &mut Room) -> Result<(), CoreError> {
        // Churn between decisions shows up here, not as decisions.
        let loads = &*self.loads;
        let spr = loads.servers_per_rack();
        let utilizations = &mut self.queue.action.utilizations;
        utilizations.clear();
        utilizations.extend(
            (0..loads.racks())
                .map(|r| FairShareRack.activity(loads.demand(r), spr).clamp(0.0, 1.0)),
        );
        room.apply_placement(&self.queue.action)
    }

    fn step(&mut self, room: &mut Room, dt: SimDuration, _step: u64) -> Result<(), CoreError> {
        room.step_placed(dt)
    }
}

impl ScheduledLoop {
    /// A loop consuming `stream`, with fair-share rack admission.
    #[must_use]
    pub fn new(stream: JobStream) -> Self {
        Self {
            queue: JobQueue {
                stream,
                pending: Vec::new(),
                active: Vec::new(),
                stats: ScheduleStats::default(),
                action: PlacementAction::from_fractions(Vec::new()),
            },
            loads: None,
            drive: Drive::new(1, Celsius::new(f64::INFINITY)),
            obs: RoomObservation::new(),
        }
    }

    /// Cumulative counters so far.
    #[must_use]
    pub fn stats(&self) -> &ScheduleStats {
        &self.queue.stats
    }

    /// The loop's clock: simulated time scheduled so far (independent
    /// of [`Room::reset_accounting`], so arrival times stay stable
    /// across warm-up/measurement chunking).
    #[must_use]
    pub fn now(&self) -> SimDuration {
        self.drive.now()
    }

    /// Jobs currently waiting for a feasible rack.
    #[must_use]
    pub fn pending_jobs(&self) -> usize {
        self.queue.pending.len()
    }

    /// Restarts peak tracking (hottest die, deepest queue) without
    /// touching the queue, the resident jobs or the clock — call
    /// between a warm-up chunk and the measured chunk so the reported
    /// peaks cover exactly the measured phase, the scheduling
    /// counterpart of [`Room::reset_accounting`].
    pub fn reset_peaks(&mut self) {
        self.drive.reset_peak();
        self.queue.stats.peak_die = Celsius::new(f64::NEG_INFINITY);
        self.queue.stats.peak_pending = 0;
    }

    /// Jobs currently resident on racks.
    #[must_use]
    pub fn running_jobs(&self) -> usize {
        self.queue.active.len()
    }

    /// Advances `room` by `steps` steps of `dt` under `scheduler` and
    /// `controller` (see the type docs for the per-step sequence).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] for a zero `dt`, a scheduler
    /// returning the wrong number of assignments, or a rack-count
    /// change between calls; propagates apply/step failures.
    pub fn run(
        &mut self,
        room: &mut Room,
        scheduler: &mut dyn RoomScheduler,
        mut controller: &mut dyn RoomController,
        dt: SimDuration,
        steps: u64,
    ) -> Result<ScheduleStats, CoreError> {
        let racks = room.racks();
        let loads = self
            .loads
            .get_or_insert_with(|| RackLoads::new(racks, room.servers() / racks.max(1)));
        if loads.racks() != racks {
            return Err(CoreError::Invalid {
                what: "scheduled loop reused across rooms of different size".to_owned(),
            });
        }
        let mut stages = Scheduling {
            queue: &mut self.queue,
            loads,
            scheduler,
        };
        let result = self.drive.run(
            room,
            std::slice::from_mut(&mut controller),
            &mut stages,
            &mut self.obs,
            dt,
            steps,
        );
        let control = self.drive.stats();
        let stats = &mut self.queue.stats;
        stats.ctrl_decisions = control.decisions;
        stats.ctrl_applied = control.applied;
        stats.peak_die = control.peak_die;
        result.map(|()| *stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::FixedSupplyController;
    use crate::room::RoomConfig;

    fn job(arrival: u64, duration: u64, util: f64) -> Job {
        Job {
            arrival: SimDuration::from_secs(arrival),
            duration: SimDuration::from_secs(duration),
            utilization: Utilization::saturating_from_fraction(util),
        }
    }

    fn obs_for(racks: usize, die: &[f64]) -> RoomObservation {
        let mut obs = RoomObservation::new();
        obs.die_limit = Celsius::new(85.0);
        obs.rack_die_max = die.iter().map(|&d| Celsius::new(d)).collect();
        obs.rack_it_power = vec![Watts::new(1_000.0); racks];
        obs
    }

    #[test]
    fn generated_streams_replay_bit_identically() {
        let mut a = JobStream::generate(JobStreamConfig::new(0.5, 7)).unwrap();
        let mut b = JobStream::generate(JobStreamConfig::new(0.5, 7)).unwrap();
        let (mut ja, mut jb) = (Vec::new(), Vec::new());
        a.pop_arrived(SimDuration::from_mins(10), &mut ja);
        b.pop_arrived(SimDuration::from_mins(10), &mut jb);
        assert!(!ja.is_empty());
        assert_eq!(ja, jb);
        // Arrival order is monotone.
        assert!(ja.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // A different seed is a different trace.
        let mut c = JobStream::generate(JobStreamConfig::new(0.5, 8)).unwrap();
        let mut jc = Vec::new();
        c.pop_arrived(SimDuration::from_mins(10), &mut jc);
        assert_ne!(ja, jc);
    }

    #[test]
    fn generator_rejects_malformed_configs() {
        let mut cfg = JobStreamConfig::new(0.0, 1);
        assert!(JobStream::generate(cfg.clone()).is_err());
        cfg.arrival_rate = 1.0;
        cfg.mean_duration = cfg.min_duration;
        assert!(JobStream::generate(cfg.clone()).is_err());
        cfg.mean_duration = SimDuration::from_mins(10);
        cfg.utilization_lo = 0.9;
        cfg.utilization_hi = 0.5;
        assert!(JobStream::generate(cfg).is_err());
    }

    #[test]
    fn trace_streams_sort_and_pop_in_arrival_order() {
        let mut s = JobStream::from_trace(vec![job(30, 60, 1.0), job(10, 60, 0.5)]);
        assert_eq!(s.peek_arrival(), Some(SimDuration::from_secs(10)));
        let mut out = Vec::new();
        s.pop_arrived(SimDuration::from_secs(20), &mut out);
        assert_eq!(out.len(), 1);
        s.pop_arrived(SimDuration::from_secs(40), &mut out);
        assert_eq!(out.len(), 2);
        assert!(s.peek_arrival().is_none());
    }

    #[test]
    fn round_robin_cycles_and_respects_capacity() {
        let mut rr = RoundRobinScheduler::new(SimDuration::from_secs(10));
        let mut loads = RackLoads::new(2, 1);
        let obs = obs_for(2, &[40.0, 40.0]);
        let pending = vec![job(0, 60, 1.0); 3];
        let got = rr.place(&obs, &pending, &loads);
        // Two racks of one slot each: third job has nowhere to go.
        assert_eq!(got, vec![Some(0), Some(1), None]);
        // A full rack is skipped.
        loads.start(0, &pending[0]);
        rr.reset();
        let got = rr.place(&obs, &pending[..1], &loads);
        assert_eq!(got, vec![Some(1)]);
    }

    #[test]
    fn greedy_prefers_the_coldest_rack_and_honors_margins() {
        let cfg = ThermalGreedyConfig::paper_default();
        let mut greedy = ThermalGreedyScheduler::new(cfg);
        let loads = RackLoads::new(3, 4);
        let obs = obs_for(3, &[70.0, 50.0, 60.0]);
        let got = greedy.place(&obs, &[job(0, 60, 1.0)], &loads);
        assert_eq!(got, vec![Some(1)], "coldest rack wins");
        // Every rack projected over the cap: the job stays queued.
        let hot = obs_for(3, &[84.9, 84.8, 84.7]);
        let got = greedy.place(&hot, &[job(0, 60, 1.0)], &loads);
        assert_eq!(got, vec![None]);
    }

    #[test]
    fn greedy_self_balances_as_racks_fill() {
        let cfg = ThermalGreedyConfig::paper_default();
        let mut greedy = ThermalGreedyScheduler::new(cfg);
        let loads = RackLoads::new(2, 2);
        let obs = obs_for(2, &[50.0, 51.0]);
        // Four full-load jobs on 2×2 slots, each warming its rack's
        // projection by 15 °C: placement alternates as the projected
        // temperatures leapfrog, instead of filling one rack first.
        let got = greedy.place(&obs, &[job(0, 60, 1.0); 4], &loads);
        assert_eq!(got, vec![Some(0), Some(1), Some(0), Some(1)]);
    }

    #[test]
    fn greedy_respects_power_budgets() {
        let mut cfg = ThermalGreedyConfig::paper_default();
        cfg.power_budget = Some(Watts::new(1_100.0));
        cfg.job_power = Watts::new(230.0);
        let mut greedy = ThermalGreedyScheduler::new(cfg);
        let loads = RackLoads::new(2, 4);
        // Both racks at 1000 W: one full job projects 1230 W > budget.
        let obs = obs_for(2, &[50.0, 60.0]);
        let got = greedy.place(&obs, &[job(0, 60, 1.0)], &loads);
        assert_eq!(got, vec![None]);
        // A light job (0.4 → 92 W) fits, on the colder rack.
        let got = greedy.place(&obs, &[job(0, 60, 0.4)], &loads);
        assert_eq!(got, vec![Some(0)]);
    }

    #[test]
    fn local_search_never_raises_the_projected_cost_of_the_seed() {
        let cfg = ThermalGreedyConfig::paper_default();
        let loads = RackLoads::new(4, 8);
        let obs = obs_for(4, &[55.0, 48.0, 62.0, 51.0]);
        let pending: Vec<Job> = (0..12)
            .map(|i| job(0, 60, 0.4 + 0.05 * f64::from(i)))
            .collect();
        let (seed_assign, _) = greedy_place(&cfg, &obs, &pending, &loads);
        let mut meta = LocalSearchScheduler::new(cfg.clone());
        let refined = meta.place(&obs, &pending, &loads);
        let cost = |assign: &[Option<usize>]| {
            let mut proj = Projection::new(&obs, &loads);
            let mut total = 0.0;
            for (i, a) in assign.iter().enumerate() {
                if let Some(r) = *a {
                    let rise = proj.rise(&cfg, &loads, &pending[i]);
                    total += proj.marginal_leakage(&cfg, &loads, r, rise);
                    proj.commit(&cfg, r, rise, &pending[i]);
                }
            }
            total
        };
        let placed = |assign: &[Option<usize>]| assign.iter().flatten().count();
        assert_eq!(placed(&refined), placed(&seed_assign));
        assert!(cost(&refined) <= cost(&seed_assign) + 1e-9);
    }

    #[test]
    fn scheduled_loop_places_runs_and_retires_jobs() {
        let mut room = Room::new(RoomConfig::new(1, 2, 4)).unwrap();
        let stream =
            JobStream::from_trace(vec![job(0, 30, 1.0), job(0, 30, 1.0), job(5, 200, 0.5)]);
        let mut the_loop = ScheduledLoop::new(stream);
        let mut sched = RoundRobinScheduler::new(SimDuration::from_secs(5));
        let mut ctrl = FixedSupplyController::new(Celsius::new(18.0));
        let stats = the_loop
            .run(
                &mut room,
                &mut sched,
                &mut ctrl,
                SimDuration::from_secs(1),
                120,
            )
            .unwrap();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.placed, 3);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.completed, 2, "the 30 s jobs retire inside 120 s");
        assert_eq!(the_loop.running_jobs(), 1);
        assert_eq!(the_loop.pending_jobs(), 0);
        assert!(stats.sched_decisions >= 24);
        assert!(room.total_energy().value() > 0.0);
        // The resident placement reflects the surviving 0.5-demand job.
        let placed: f64 = room.placement().iter().map(|u| u.as_fraction()).sum();
        assert!((placed - 0.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn scheduled_loop_rejects_zero_dt_and_wrong_assignment_counts() {
        let mut room = Room::new(RoomConfig::new(1, 1, 2)).unwrap();
        let mut the_loop = ScheduledLoop::new(JobStream::from_trace(Vec::new()));
        let mut sched = RoundRobinScheduler::new(SimDuration::from_secs(5));
        let mut ctrl = FixedSupplyController::new(Celsius::new(18.0));
        assert!(the_loop
            .run(&mut room, &mut sched, &mut ctrl, SimDuration::ZERO, 1)
            .is_err());

        struct Broken;
        impl RoomScheduler for Broken {
            fn name(&self) -> &str {
                "broken"
            }
            fn decision_period(&self) -> SimDuration {
                SimDuration::from_secs(1)
            }
            fn place(
                &mut self,
                _obs: &RoomObservation,
                _pending: &[Job],
                _loads: &RackLoads,
            ) -> Vec<Option<usize>> {
                vec![Some(0); 99]
            }
        }
        let stream = JobStream::from_trace(vec![job(0, 10, 1.0)]);
        let mut the_loop = ScheduledLoop::new(stream);
        let err = the_loop
            .run(
                &mut room,
                &mut Broken,
                &mut ctrl,
                SimDuration::from_secs(1),
                1,
            )
            .unwrap_err();
        assert!(err.to_string().contains("broken"));
    }

    #[test]
    fn infeasible_assignments_are_rejected_and_requeued() {
        struct Stubborn;
        impl RoomScheduler for Stubborn {
            fn name(&self) -> &str {
                "stubborn"
            }
            fn decision_period(&self) -> SimDuration {
                SimDuration::from_secs(1)
            }
            fn place(
                &mut self,
                _obs: &RoomObservation,
                pending: &[Job],
                _loads: &RackLoads,
            ) -> Vec<Option<usize>> {
                vec![Some(999); pending.len()]
            }
        }
        let mut room = Room::new(RoomConfig::new(1, 1, 2)).unwrap();
        let stream = JobStream::from_trace(vec![job(0, 10, 1.0)]);
        let mut the_loop = ScheduledLoop::new(stream);
        let mut ctrl = FixedSupplyController::new(Celsius::new(18.0));
        let stats = the_loop
            .run(
                &mut room,
                &mut Stubborn,
                &mut ctrl,
                SimDuration::from_secs(1),
                3,
            )
            .unwrap();
        assert_eq!(stats.placed, 0);
        assert!(stats.rejected >= 3, "re-rejected every decision");
        assert_eq!(the_loop.pending_jobs(), 1);
    }

    #[test]
    fn fair_share_admission_spreads_demand() {
        let fs = FairShareRack;
        assert_eq!(fs.activity(0.0, 8), 0.0);
        assert!((fs.activity(4.0, 8) - 0.5).abs() < 1e-12);
        assert_eq!(fs.activity(9.0, 8), 1.0, "clamped at capacity");
    }
}
