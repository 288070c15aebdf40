//! Timing from outside the program: a span recorder, wrappers around
//! the trait objects the benchmark hands to the simulator, and the
//! per-step probe every workload drives its measured phase through.

use std::cell::RefCell;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use leakctl::control::{ControlAction, RoomController, RoomObservation, SupplyPreview};
use leakctl::schedule::{Job, RackLoads, RoomScheduler};
use leakctl::CoreError;
use leakctl_telemetry::CSTH_POLL_PERIOD;
use leakctl_units::{Celsius, SimDuration};

use crate::stats::{classify, Span, StepClass};

/// Polls per block of Gaussian draws a sensor refills at once: a copy
/// of the telemetry crate's private `NOISE_BLOCK`, which the public API
/// does not expose. The step classes and the 160-step block sizing
/// depend on it; every run checks it against the measured step times
/// (`stats::refill_class_problem`) and fails if the two disagree.
pub const REFILL_POLLS: u64 = 16;

/// In-memory span store. Disabled, it records nothing and never reads
/// the clock, so the untraced run pays only a branch per boundary.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The recorder shared by the probe and every wrapper of one run.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

impl Recorder {
    /// A fresh recorder, not yet recording.
    #[must_use]
    pub fn shared() -> SharedRecorder {
        Rc::new(RefCell::new(Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }))
    }

    /// Starts or stops recording (warm-up runs with recording off).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            self.open.pop();
        }
    }

    /// Everything recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines, one span per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

fn timed<T>(rec: &SharedRecorder, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = rec.borrow_mut().begin(name);
    let out = f();
    rec.borrow_mut().end(id);
    out
}

/// A [`RoomScheduler`] whose `place` calls are recorded as spans.
pub struct TimedScheduler {
    inner: Box<dyn RoomScheduler>,
    rec: SharedRecorder,
}

impl TimedScheduler {
    /// Wraps `inner`, recording into `rec`.
    #[must_use]
    pub fn new(inner: Box<dyn RoomScheduler>, rec: SharedRecorder) -> Self {
        Self { inner, rec }
    }
}

impl RoomScheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decision_period(&self) -> SimDuration {
        self.inner.decision_period()
    }

    fn place(
        &mut self,
        obs: &RoomObservation,
        pending: &[Job],
        loads: &RackLoads,
    ) -> Vec<Option<usize>> {
        let inner = &mut self.inner;
        timed(&self.rec, "place", || inner.place(obs, pending, loads))
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// A [`RoomController`] whose decisions are recorded as `observe`
/// spans, with every what-if query as a nested `preview` span.
pub struct TimedController {
    inner: Box<dyn RoomController>,
    rec: SharedRecorder,
}

impl TimedController {
    /// Wraps `inner`, recording into `rec`.
    #[must_use]
    pub fn new(inner: Box<dyn RoomController>, rec: SharedRecorder) -> Self {
        Self { inner, rec }
    }
}

impl RoomController for TimedController {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decision_period(&self) -> SimDuration {
        self.inner.decision_period()
    }

    fn observe(&mut self, obs: &RoomObservation, preview: &mut dyn SupplyPreview) -> ControlAction {
        let inner = &mut self.inner;
        let rec = &self.rec;
        timed(rec, "observe", || {
            let mut preview = TimedPreview {
                inner: preview,
                rec,
            };
            inner.observe(obs, &mut preview)
        })
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn checkpoint_state(&self) -> Vec<f64> {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &[f64]) {
        self.inner.restore_state(state);
    }
}

struct TimedPreview<'a> {
    inner: &'a mut dyn SupplyPreview,
    rec: &'a SharedRecorder,
}

impl SupplyPreview for TimedPreview<'_> {
    fn preview_supply(
        &mut self,
        supply: Celsius,
        cold_aisles: &mut Vec<Celsius>,
    ) -> Result<Celsius, CoreError> {
        let inner = &mut self.inner;
        timed(self.rec, "preview", || {
            inner.preview_supply(supply, cold_aisles)
        })
    }
}

/// `VmRSS` or `VmHWM` of this process in MiB (0 where `/proc` is
/// unavailable).
#[must_use]
pub fn proc_status_mib(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One measured step: host time and population.
#[derive(Debug, Clone, Copy)]
pub struct StepSample {
    /// Host time, ns.
    pub ns: u64,
    /// Population, from the step's simulated end time.
    pub class: StepClass,
}

/// Collects the measured phase of one pass: every step's host time and
/// class, checkpoint times, failures, and telemetry-history growth.
pub struct Probe {
    rec: SharedRecorder,
    /// Every measured step, in order.
    pub steps: Vec<StepSample>,
    /// Every checkpoint: its position in the script (the same position
    /// is the same work on every replay) and its host time, ns.
    pub checkpoints: Vec<(u64, u64)>,
    /// Steps that returned an error.
    pub failed: u64,
    rss_start_mib: f64,
    /// `VmRSS` growth over the first contiguous simulated stretch:
    /// (MiB, simulated seconds).
    pub rss_growth: Option<(f64, f64)>,
}

impl Probe {
    /// A probe recording spans into `rec`.
    #[must_use]
    pub fn new(rec: SharedRecorder) -> Self {
        Self {
            rec,
            steps: Vec::new(),
            checkpoints: Vec::new(),
            failed: 0,
            rss_start_mib: proc_status_mib("VmRSS"),
            rss_growth: None,
        }
    }

    /// Times one simulated step ending at `sim_end` (since the room was
    /// built) as a `step` span.
    pub fn step(&mut self, sim_end: SimDuration, f: impl FnOnce() -> Result<(), CoreError>) {
        let id = self.rec.borrow_mut().begin("step");
        let t0 = Instant::now();
        let ok = f().is_ok();
        let ns = elapsed_ns(t0);
        self.rec.borrow_mut().end(id);
        self.failed += u64::from(!ok);
        let class = classify(
            sim_end.as_millis(),
            CSTH_POLL_PERIOD.as_millis(),
            REFILL_POLLS,
        );
        self.steps.push(StepSample { ns, class });
    }

    /// Times one checkpoint at script position `slot` (taking it and
    /// dropping the one it replaces) as a top-level `checkpoint` span.
    pub fn checkpoint(&mut self, slot: u64, f: impl FnOnce()) {
        let id = self.rec.borrow_mut().begin("checkpoint");
        let t0 = Instant::now();
        f();
        let ns = elapsed_ns(t0);
        self.rec.borrow_mut().end(id);
        self.checkpoints.push((slot, ns));
    }

    /// Records `VmRSS` growth since the probe was made, over
    /// `sim_secs` of simulated time; only the first call counts.
    pub fn mark_rss(&mut self, sim_secs: f64) {
        if self.rss_growth.is_none() {
            self.rss_growth = Some((proc_status_mib("VmRSS") - self.rss_start_mib, sim_secs));
        }
    }

    /// Host time of the whole measured phase (steps and checkpoints).
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        self.steps.iter().map(|s| s.ns).sum::<u64>()
            + self.checkpoints.iter().map(|&(_, ns)| ns).sum::<u64>()
    }

    /// Host times in ms, grouped into populations of identical work:
    /// one per step class, then one per checkpoint position.
    #[must_use]
    pub fn populations(&self) -> Vec<Vec<f64>> {
        let mut pops: Vec<Vec<f64>> = StepClass::ALL
            .iter()
            .map(|&class| self.class_ms(class))
            .collect();
        let mut slots: Vec<u64> = self.checkpoints.iter().map(|&(slot, _)| slot).collect();
        slots.sort_unstable();
        slots.dedup();
        pops.extend(slots.into_iter().map(|slot| {
            self.checkpoints
                .iter()
                .filter(|&&(s, _)| s == slot)
                .map(|&(_, ns)| ns as f64 * 1e-6)
                .collect()
        }));
        pops
    }

    /// Host times of the steps of one class, ms, in order.
    #[must_use]
    pub fn class_ms(&self, class: StepClass) -> Vec<f64> {
        self.steps
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.ns as f64 * 1e-6)
            .collect()
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
