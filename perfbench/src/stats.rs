//! The benchmark's own arithmetic: percentiles with the
//! "ten samples beyond" rule, quiet totals, step classification by
//! simulated time and its check, span self time, and fingerprint
//! comparison and pinning. Pure functions, unit tested below.

use std::fmt::Write as _;

/// 1-based nearest rank of percentile `q` (in `0..=1`) in a sample of
/// `n`: `ceil(q · n)`, at least 1. `None` for an empty sample.
fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count); `0.0` for an empty one.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile `q` (in `0..=1`) of an unsorted sample;
/// `0.0` for an empty one.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let Some(rank) = rank(values.len(), q) else {
        return 0.0;
    };
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank - 1]
}

/// Host time the measured phase would take if every sample of each
/// population cost that population's `q` percentile: the sum over
/// populations of count × percentile. Each population must be the same
/// work repeated (one step class, or one checkpoint position), so its
/// low percentile is that work on a quiet host.
#[must_use]
pub fn quiet_total(populations: &[Vec<f64>], q: f64) -> f64 {
    populations
        .iter()
        .map(|p| p.len() as f64 * quantile(p, q))
        .fold(0.0, |a, v| a + v)
}

/// A tail percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile's value.
    pub value: f64,
    /// Sample count.
    pub samples: usize,
    /// Samples strictly above its rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` of an ascending sample, only when at least
/// `min_beyond` samples lie beyond its rank — a tail read from fewer
/// samples is one or two outliers, not a percentile.
#[must_use]
pub fn tail(sorted: &[f64], q: f64, min_beyond: usize) -> Option<Tail> {
    let rank = rank(sorted.len(), q)?;
    let beyond = sorted.len() - rank;
    (beyond >= min_beyond).then(|| Tail {
        value: sorted[rank - 1],
        samples: sorted.len(),
        beyond,
    })
}

/// What a step did besides the plain physics, keyed to simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    /// Physics only.
    Plain,
    /// Ends on a telemetry poll instant: every sensor records a sample.
    Poll,
    /// A poll that also refills every sensor's block of Gaussian draws.
    Refill,
}

impl StepClass {
    /// All classes, in report order.
    pub const ALL: [Self; 3] = [Self::Plain, Self::Poll, Self::Refill];

    /// Report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Plain => "plain",
            Self::Poll => "poll",
            Self::Refill => "refill",
        }
    }
}

/// Classifies a step by its simulated end time (ms since the room was
/// built). Sensors are polled at construction and then every
/// `poll_ms`; the construction poll consumes the first draw of a block
/// of `refill_polls` draws, so the block runs dry — and refills — on
/// every `refill_polls`-th later poll.
#[must_use]
pub fn classify(end_ms: u64, poll_ms: u64, refill_polls: u64) -> StepClass {
    if poll_ms == 0 || !end_ms.is_multiple_of(poll_ms) {
        StepClass::Plain
    } else if end_ms.is_multiple_of(poll_ms * refill_polls.max(1)) {
        StepClass::Refill
    } else {
        StepClass::Poll
    }
}

/// Checks that the step classes match the sensors' real refill cadence.
/// A refill step costs several poll steps, so
///
/// - the 10th-percentile refill-class step must be slower than the
///   95th-percentile poll-class step: this fails when some refill-class
///   steps are really polls (a noise block shorter than [`classify`] is
///   given, or one of another length);
/// - fewer poll-class steps than half the refill-class count may cost
///   half a median refill or more: this fails when the block is really
///   a whole multiple shorter, so that real refills hide among the
///   polls as often as they show in the refill class.
///
/// `None` when both hold or a class is empty.
#[must_use]
pub fn refill_class_problem(poll_ms: &[f64], refill_ms: &[f64]) -> Option<String> {
    if poll_ms.is_empty() || refill_ms.is_empty() {
        return None;
    }
    let (refill_p10, poll_p95) = (quantile(refill_ms, 0.10), quantile(poll_ms, 0.95));
    if refill_p10 <= poll_p95 {
        return Some(format!(
            "refill-class p10 {refill_p10:.3} ms is not above poll-class p95 {poll_p95:.3} ms: \
             the step classes no longer match the sensors' refill cadence"
        ));
    }
    let half_refill = 0.5 * median(refill_ms);
    let hidden = poll_ms.iter().filter(|&&ms| ms >= half_refill).count();
    (2 * hidden >= refill_ms.len()).then(|| {
        format!(
            "{hidden} poll-class steps cost at least half a median refill step \
             ({half_refill:.3} ms) against {} refill-class steps: the step classes no longer \
             match the sensors' refill cadence",
            refill_ms.len()
        )
    })
}

/// One timed interval of a traced run. `parent` indexes the enclosing
/// span in the same list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers (`step`, `place`, `observe`, ...).
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (children are nested, so they never overlap).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// The simulated result a run must reproduce: energies over the
/// measured phase, its hottest die, and workload-specific exact counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Total energy (IT + cooling or plant), kWh.
    pub total_kwh: f64,
    /// IT energy, kWh.
    pub it_kwh: f64,
    /// Cooling (room CRAH) or plant electricity, kWh.
    pub cooling_kwh: f64,
    /// Hottest die over the measured phase, °C.
    pub peak_die_c: f64,
    /// Exact counters, by name.
    pub counts: Vec<(String, u64)>,
}

impl Fingerprint {
    /// The fingerprint of a run that produced nothing; it matches no
    /// other.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            total_kwh: f64::NAN,
            it_kwh: f64::NAN,
            cooling_kwh: f64::NAN,
            peak_die_c: f64::NAN,
            counts: Vec::new(),
        }
    }

    /// Fields on which `self` and `other` differ: floats by more than
    /// `tol` (absolute), counts at all. Empty when they agree.
    #[must_use]
    pub fn diff(&self, other: &Self, tol: f64) -> Vec<String> {
        let mut out = Vec::new();
        let floats = [
            ("total_kwh", self.total_kwh, other.total_kwh),
            ("it_kwh", self.it_kwh, other.it_kwh),
            ("cooling_kwh", self.cooling_kwh, other.cooling_kwh),
            ("peak_die_c", self.peak_die_c, other.peak_die_c),
        ];
        for (name, a, b) in floats {
            // False for a NaN on either side, so NaN is a mismatch.
            let within = (a - b).abs() <= tol;
            if !within {
                out.push(format!("{name}: {a:?} vs {b:?}"));
            }
        }
        if self.counts.len() != other.counts.len() {
            out.push(format!("counts: {:?} vs {:?}", self.counts, other.counts));
        } else {
            for ((name, a), (other_name, b)) in self.counts.iter().zip(&other.counts) {
                if name != other_name || a != b {
                    out.push(format!("{name}: {a} vs {other_name}: {b}"));
                }
            }
        }
        out
    }

    /// `true` when every energy is finite, total energy is positive and
    /// equal to IT plus cooling (or plant) energy to within a relative
    /// 1e-9. The simulator defines total as that sum, so this guards
    /// against NaN and empty runs only; the pins in `pins.txt` and the
    /// benchmark's own IT-power integral are what catch a changed
    /// result.
    #[must_use]
    pub fn energy_closes(&self) -> bool {
        let gap = (self.total_kwh - (self.it_kwh + self.cooling_kwh)).abs();
        gap <= 1e-9 * self.total_kwh.abs().max(1.0) && self.total_kwh > 0.0
    }

    /// The fingerprint as one line of `pins.txt`:
    /// `workload seed steps total it cooling peak name=count...`.
    #[must_use]
    pub fn pin_line(&self, workload: &str, seed: u64, steps: u64) -> String {
        let mut s = format!(
            "{workload} {seed} {steps} {:?} {:?} {:?} {:?}",
            self.total_kwh, self.it_kwh, self.cooling_kwh, self.peak_die_c
        );
        for (name, v) in &self.counts {
            let _ = write!(s, " {name}={v}");
        }
        s
    }
}

/// One pinned result: the fingerprint a workload must reproduce for a
/// seed over a measured phase of `steps` steps.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured steps the pin holds for.
    pub steps: u64,
    /// The pinned result.
    pub fingerprint: Fingerprint,
}

/// Parses a pin table: one [`Fingerprint::pin_line`] per line; blank
/// lines and `#` comments are skipped.
///
/// # Errors
///
/// Names the first malformed line.
pub fn parse_pins(text: &str) -> Result<Vec<Pin>, String> {
    let mut pins = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("pins line {}: `{line}`", i + 1);
        let mut fields = line.split_whitespace();
        let workload = fields.next().ok_or_else(bad)?.to_owned();
        let mut int = || fields.next()?.parse::<u64>().ok();
        let (seed, steps) = (int().ok_or_else(bad)?, int().ok_or_else(bad)?);
        let mut float = || fields.next()?.parse::<f64>().ok();
        let mut floats = [0.0; 4];
        for f in &mut floats {
            *f = float().ok_or_else(bad)?;
        }
        let counts = fields
            .map(|kv| {
                let (k, v) = kv.split_once('=')?;
                Some((k.to_owned(), v.parse().ok()?))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(bad)?;
        let [total_kwh, it_kwh, cooling_kwh, peak_die_c] = floats;
        pins.push(Pin {
            workload,
            seed,
            steps,
            fingerprint: Fingerprint {
                total_kwh,
                it_kwh,
                cooling_kwh,
                peak_die_c,
                counts,
            },
        });
    }
    Ok(pins)
}

impl Fingerprint {
    /// One-line JSON rendering, every float with all its digits.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"total_kwh\": {:?}, \"it_kwh\": {:?}, \"cooling_kwh\": {:?}, \"peak_die_c\": {:?}",
            self.total_kwh, self.it_kwh, self.cooling_kwh, self.peak_die_c
        );
        for (name, v) in &self.counts {
            let _ = write!(s, ", \"{name}\": {v}");
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = sorted(100);
        let at = |q| tail(&v, q, 0).map(|t| (t.value, t.beyond));
        assert_eq!(at(0.5), Some((50.0, 50)));
        assert_eq!(at(0.99), Some((99.0, 1)));
        assert_eq!(at(1.0), Some((100.0, 0)));
        assert_eq!(at(0.0), Some((1.0, 99)));
        assert_eq!(tail(&[7.0], 0.99, 0).map(|t| t.value), Some(7.0));
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, exactly ten beyond.
        let t = tail(&sorted(1000), 0.99, 10).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!((t.samples, t.beyond), (1000, 10));
        // 999 samples: rank 990 (ceil 989.01), nine beyond — refused.
        assert!(tail(&sorted(999), 0.99, 10).is_none());
        // 1440 samples (three 480-step blocks): rank 1426, 14 beyond.
        let t = tail(&sorted(1440), 0.99, 10).unwrap();
        assert_eq!((t.value, t.beyond), (1426.0, 14));
        assert!(tail(&[], 0.99, 0).is_none());
    }

    #[test]
    fn steps_classify_by_simulated_end_time() {
        let (poll, refill) = (10_000, 16);
        assert_eq!(classify(1_000, poll, refill), StepClass::Plain);
        assert_eq!(classify(9_999, poll, refill), StepClass::Plain);
        assert_eq!(classify(10_000, poll, refill), StepClass::Poll);
        assert_eq!(classify(150_000, poll, refill), StepClass::Poll);
        assert_eq!(classify(160_000, poll, refill), StepClass::Refill);
        assert_eq!(classify(320_000, poll, refill), StepClass::Refill);
        // A 160-step cycle of 1 s steps: 144 plain, 15 poll, 1 refill.
        let mut counts = [0; 3];
        for step in 0..160u64 {
            let c = classify((480 + step + 1) * 1_000, poll, refill);
            counts[StepClass::ALL.iter().position(|&k| k == c).unwrap()] += 1;
        }
        assert_eq!(counts, [144, 15, 1]);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            Span {
                name: "step",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "observe",
                start_ns: 10,
                end_ns: 60,
                parent: Some(0),
            },
            Span {
                name: "preview",
                start_ns: 20,
                end_ns: 30,
                parent: Some(1),
            },
            Span {
                name: "preview",
                start_ns: 40,
                end_ns: 55,
                parent: Some(1),
            },
            Span {
                name: "place",
                start_ns: 70,
                end_ns: 75,
                parent: Some(0),
            },
            Span {
                name: "checkpoint",
                start_ns: 100,
                end_ns: 140,
                parent: None,
            },
        ];
        assert_eq!(self_times_ns(&spans), vec![45, 25, 10, 15, 5, 40]);
    }

    fn fp() -> Fingerprint {
        Fingerprint {
            total_kwh: 12.5,
            it_kwh: 10.0,
            cooling_kwh: 2.5,
            peak_die_c: 71.25,
            counts: vec![("placed".into(), 7), ("completed".into(), 3)],
        }
    }

    #[test]
    fn pin_lines_round_trip_exactly() {
        let mut f = fp();
        f.total_kwh = 0.1 + 0.2;
        let line = f.pin_line("sched-floor", 7, 1920);
        assert_eq!(
            line,
            "sched-floor 7 1920 0.30000000000000004 10.0 2.5 71.25 placed=7 completed=3"
        );
        let text = format!("# header\n\n{line}\nmpc-wide 1 960 1.0 0.5 0.5 80.0\n");
        let pins = parse_pins(&text).unwrap();
        assert_eq!(pins.len(), 2);
        assert_eq!(
            (pins[0].workload.as_str(), pins[0].seed, pins[0].steps),
            ("sched-floor", 7, 1920)
        );
        assert!(pins[0].fingerprint.diff(&f, 0.0).is_empty());
        assert!(pins[1].fingerprint.counts.is_empty());
        assert!(parse_pins("sched-floor 7 1920 1.0 2.0 3.0").is_err());
        assert!(parse_pins("sched-floor 7 1920 1.0 2.0 3.0 4.0 placed").is_err());
    }

    #[test]
    fn quantiles_and_quiet_totals() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.05), 1.0);
        assert_eq!(quantile(&v, 0.10), 2.0);
        assert_eq!(quantile(&v, 0.5), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // Two populations: 20 steps at their p5 (1.0) plus 3 at theirs.
        let pops = [v, vec![9.0, 7.0, 8.0]];
        assert_eq!(quiet_total(&pops, 0.05), 20.0 * 1.0 + 3.0 * 7.0);
        assert_eq!(quiet_total(&[], 0.05), 0.0);
    }

    #[test]
    fn refill_class_must_stand_above_polls() {
        let polls: Vec<f64> = (0..100).map(|i| 4.0 + f64::from(i) * 0.02).collect();
        let refills = vec![30.0, 28.0, 33.0, 31.0];
        assert!(refill_class_problem(&polls, &refills).is_none());
        // A noise block twice as long: half the "refills" are polls.
        let mixed = vec![30.0, 4.5, 31.0, 4.2];
        assert!(refill_class_problem(&polls, &mixed).is_some());
        // Half as long: one poll in eight refills.
        let mut polluted = polls.clone();
        polluted.extend(std::iter::repeat_n(30.0, 14));
        assert!(refill_class_problem(&polluted, &refills).is_some());
        // Twice as long: as many real refills among the polls as in the
        // refill class, too few to reach the poll-class p95.
        let mut hiding = polls.clone();
        hiding.extend([29.0, 32.0, 30.5, 31.5]);
        assert!(refill_class_problem(&hiding, &refills).is_some());
        // One slow poll is noise, not a hidden refill.
        let mut noisy = polls.clone();
        noisy.push(29.0);
        assert!(refill_class_problem(&noisy, &refills).is_none());
        assert!(refill_class_problem(&[], &refills).is_none());
    }

    #[test]
    fn fingerprint_diff_respects_tolerance_and_counts() {
        let a = fp();
        assert!(a.diff(&a, 0.0).is_empty());
        let mut b = fp();
        b.total_kwh += 5e-10;
        assert!(a.diff(&b, 1e-9).is_empty());
        assert_eq!(a.diff(&b, 0.0).len(), 1, "exact comparison sees it");
        b.total_kwh += 1e-8;
        assert!(a.diff(&b, 1e-9)[0].starts_with("total_kwh"));
        let mut c = fp();
        c.counts[1].1 = 4;
        assert_eq!(a.diff(&c, 1e-9), vec!["completed: 3 vs completed: 4"]);
        let mut d = fp();
        d.peak_die_c = f64::NAN;
        assert_eq!(a.diff(&d, 1e-9).len(), 1, "NaN never matches");
        let mut e = fp();
        e.counts.pop();
        assert_eq!(a.diff(&e, 1e-9).len(), 1);
    }

    #[test]
    fn energy_closure() {
        assert!(fp().energy_closes());
        let mut f = fp();
        f.it_kwh += 1e-6;
        assert!(!f.energy_closes());
        f.total_kwh = f64::NAN;
        assert!(!f.energy_closes());
    }

    #[test]
    fn fingerprint_json_keeps_all_digits() {
        let mut f = fp();
        f.total_kwh = 0.1 + 0.2;
        let json = f.to_json();
        assert!(json.contains("\"total_kwh\": 0.30000000000000004"));
        assert!(json.ends_with("\"placed\": 7, \"completed\": 3}"));
    }
}
