//! Timestamped sample series: a borrowed view of one channel with the
//! summary statistics, and its owned form.

use std::sync::Arc;

use leakctl_units::{SimDuration, SimInstant};

/// Frames per sealed block of a [`Csth`](crate::Csth) capture.
pub(crate) const BLOCK_FRAMES: usize = 16;

/// A read-only view of one channel's `(time, value)` samples.
///
/// The view reads one channel across the blocks of a frame-major
/// [`Csth`](crate::Csth) capture without copying, and reads a
/// [`TimeSeries`] as a single block. Times are non-decreasing, which
/// keeps windowed queries `O(log n)`. This is the one home of the series
/// statistics.
#[derive(Debug, Clone, Copy)]
pub struct SeriesView<'a> {
    times: &'a [SimInstant],
    // Sample `i` is frame `first + i` of `sealed` (full blocks of
    // `BLOCK_FRAMES` frames) followed by `open`; each frame is `stride`
    // values wide with this channel at `column`.
    sealed: &'a [Arc<Vec<f64>>],
    open: &'a [f64],
    first: usize,
    stride: usize,
    column: usize,
}

impl<'a> SeriesView<'a> {
    /// A view of every frame in `sealed` then `open`, one time per frame,
    /// reading value `column` of each `stride`-wide frame.
    pub(crate) fn new(
        times: &'a [SimInstant],
        sealed: &'a [Arc<Vec<f64>>],
        open: &'a [f64],
        stride: usize,
        column: usize,
    ) -> Self {
        debug_assert!(column < stride, "a series view reads inside the frame");
        debug_assert_eq!(
            times.len() * stride,
            sealed.len() * BLOCK_FRAMES * stride + open.len(),
            "one time per frame"
        );
        Self {
            times,
            sealed,
            open,
            first: 0,
            stride,
            column,
        }
    }

    fn value(&self, i: usize) -> f64 {
        let frame = self.first + i;
        let (block, row) = (frame / BLOCK_FRAMES, frame % BLOCK_FRAMES);
        match self.sealed.get(block) {
            Some(values) => values[row * self.stride + self.column],
            None => {
                let row = frame - self.sealed.len() * BLOCK_FRAMES;
                self.open[row * self.stride + self.column]
            }
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample timestamps.
    #[must_use]
    pub fn times(&self) -> &'a [SimInstant] {
        self.times
    }

    /// Sample values, in time order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = f64> + Clone + 'a {
        let view = *self;
        (0..view.len()).map(move |i| view.value(i))
    }

    /// Iterates `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimInstant, f64)> + 'a {
        self.times.iter().copied().zip(self.values())
    }

    /// The most recent sample.
    #[must_use]
    pub fn last(&self) -> Option<(SimInstant, f64)> {
        let i = self.len().checked_sub(1)?;
        Some((self.times[i], self.value(i)))
    }

    /// Arithmetic mean of all values.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.values().sum::<f64>() / self.len() as f64)
        }
    }

    /// Largest value.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.values()
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }

    /// Smallest value.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.values()
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.min(v))))
    }

    /// Linear-interpolation percentile (`p ∈ [0, 100]`) of the values.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = self.values().collect();
        sorted.sort_by(f64::total_cmp);
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }

    /// Samples with `from <= time < to`.
    #[must_use]
    pub fn window(&self, from: SimInstant, to: SimInstant) -> SeriesView<'a> {
        let start = self.times.partition_point(|&t| t < from);
        let end = self.times.partition_point(|&t| t < to).max(start);
        Self {
            times: &self.times[start..end],
            first: self.first + start,
            ..*self
        }
    }

    /// The value at or immediately before `at` (sample-and-hold read).
    #[must_use]
    pub fn at_or_before(&self, at: SimInstant) -> Option<f64> {
        let idx = self.times.partition_point(|&t| t <= at);
        if idx == 0 {
            None
        } else {
            Some(self.value(idx - 1))
        }
    }

    /// Time-weighted average over the sampled span (trapezoidal), or the
    /// plain mean when fewer than two samples exist.
    #[must_use]
    pub fn time_weighted_mean(&self) -> Option<f64> {
        if self.len() < 2 {
            return self.mean();
        }
        let mut area = 0.0;
        let mut span = 0.0;
        for i in 1..self.len() {
            let dt = (self.times[i] - self.times[i - 1]).as_secs_f64();
            area += 0.5 * (self.value(i) + self.value(i - 1)) * dt;
            span += dt;
        }
        if span > 0.0 {
            Some(area / span)
        } else {
            self.mean()
        }
    }

    /// Resamples onto a regular grid (`period` apart, starting at the
    /// first sample) using sample-and-hold semantics.
    ///
    /// # Panics
    ///
    /// Panics for a zero period.
    #[must_use]
    pub fn resample(&self, period: SimDuration) -> TimeSeries {
        assert!(!period.is_zero(), "resample period must be non-zero");
        let mut out = TimeSeries::new();
        let (Some(&first), Some(&last)) = (self.times.first(), self.times.last()) else {
            return out;
        };
        let mut t = first;
        while t <= last {
            if let Some(v) = self.at_or_before(t) {
                out.times.push(t);
                out.values.push(v);
            }
            t += period;
        }
        out
    }
}

/// An owned, append-only series of `(time, value)` samples — the owned
/// form of a [`SeriesView`], which carries all the statistics.
///
/// Samples must be appended in non-decreasing time order.
///
/// # Example
///
/// ```
/// use leakctl_telemetry::TimeSeries;
/// use leakctl_units::SimInstant;
///
/// let mut s = TimeSeries::new();
/// s.push(SimInstant::from_millis(0), 50.0).unwrap();
/// s.push(SimInstant::from_millis(10_000), 60.0).unwrap();
/// assert_eq!(s.view().mean(), Some(55.0));
/// assert_eq!(s.view().max(), Some(60.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TimeSeries {
    times: Vec<SimInstant>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    ///
    /// # Errors
    ///
    /// Returns a description when `at` precedes the last sample or the
    /// value is non-finite.
    pub fn push(&mut self, at: SimInstant, value: f64) -> Result<(), String> {
        if let Some(&last) = self.times.last() {
            if at < last {
                return Err(format!("sample at {at} precedes last sample at {last}"));
            }
        }
        if !value.is_finite() {
            return Err(format!("sample value at {at} is not finite"));
        }
        self.times.push(at);
        self.values.push(value);
        Ok(())
    }

    /// The statistics view over every sample.
    #[must_use]
    pub fn view(&self) -> SeriesView<'_> {
        SeriesView::new(&self.times, &[], &self.values, 1, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(s: u64) -> SimInstant {
        SimInstant::from_millis(s * 1_000)
    }

    fn series(values: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(t, v) in values {
            s.push(at(t), v).unwrap();
        }
        s
    }

    #[test]
    fn push_and_stats() {
        let s = series(&[(0, 50.0), (10, 70.0), (20, 60.0)]);
        let v = s.view();
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert_eq!(v.mean(), Some(60.0));
        assert_eq!(v.max(), Some(70.0));
        assert_eq!(v.min(), Some(50.0));
        assert_eq!(v.last(), Some((at(20), 60.0)));
        assert_eq!(v.times().len(), 3);
        assert_eq!(v.values().collect::<Vec<_>>(), [50.0, 70.0, 60.0]);
    }

    #[test]
    fn empty_series_stats() {
        let s = TimeSeries::new();
        let v = s.view();
        assert!(v.is_empty());
        assert_eq!(v.mean(), None);
        assert_eq!(v.max(), None);
        assert_eq!(v.min(), None);
        assert_eq!(v.last(), None);
        assert_eq!(v.percentile(50.0), None);
        assert_eq!(v.time_weighted_mean(), None);
        assert_eq!(v.at_or_before(at(5)), None);
        assert!(v.window(at(0), at(10)).is_empty());
        assert!(v.resample(SimDuration::from_secs(1)).view().is_empty());
    }

    #[test]
    fn rejects_time_regression_and_nan() {
        let mut s = series(&[(10, 1.0)]);
        assert!(s.push(at(5), 2.0).is_err());
        assert!(s.push(at(10), 2.0).is_ok(), "equal timestamps allowed");
        assert!(s.push(at(11), f64::NAN).is_err());
    }

    #[test]
    fn percentiles() {
        let s = series(&[(0, 10.0), (1, 20.0), (2, 30.0), (3, 40.0), (4, 50.0)]);
        let v = s.view();
        assert_eq!(v.percentile(0.0), Some(10.0));
        assert_eq!(v.percentile(50.0), Some(30.0));
        assert_eq!(v.percentile(100.0), Some(50.0));
        assert_eq!(v.percentile(25.0), Some(20.0));
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_range_checked() {
        let _ = series(&[(0, 1.0)]).view().percentile(150.0);
    }

    #[test]
    fn window_is_half_open() {
        let s = series(&[(0, 1.0), (10, 2.0), (20, 3.0), (30, 4.0)]);
        let w = s.view().window(at(10), at(30));
        assert_eq!(w.values().collect::<Vec<_>>(), [2.0, 3.0]);
        assert!(s.view().window(at(31), at(40)).is_empty());
        assert!(
            s.view().window(at(30), at(10)).is_empty(),
            "inverted bounds"
        );
    }

    #[test]
    fn sample_and_hold_read() {
        let s = series(&[(10, 1.0), (20, 2.0)]);
        let v = s.view();
        assert_eq!(v.at_or_before(at(9)), None);
        assert_eq!(v.at_or_before(at(10)), Some(1.0));
        assert_eq!(v.at_or_before(at(15)), Some(1.0));
        assert_eq!(v.at_or_before(at(25)), Some(2.0));
    }

    #[test]
    fn time_weighted_mean_weights_long_holds() {
        // 0 °C for 90 s then 10 °C for 10 s: TW mean must sit near the
        // long-held value, the plain mean at the midpoint.
        let s = series(&[(0, 0.0), (90, 0.0), (90, 10.0), (100, 10.0)]);
        let tw = s.view().time_weighted_mean().unwrap();
        assert!((tw - 1.0).abs() < 1e-9, "expected 1.0, got {tw}");
        assert_eq!(s.view().mean(), Some(5.0));
    }

    #[test]
    fn resample_holds_values() {
        let s = series(&[(0, 1.0), (25, 2.0), (50, 3.0)]);
        let r = s.view().resample(SimDuration::from_secs(10));
        assert_eq!(r.view().len(), 6); // t = 0, 10, 20, 30, 40, 50.
        assert_eq!(
            r.view().values().collect::<Vec<_>>(),
            [1.0, 1.0, 1.0, 2.0, 2.0, 3.0]
        );
    }

    #[test]
    fn iter_yields_pairs() {
        let s = series(&[(0, 1.0), (10, 2.0)]);
        let pairs: Vec<_> = s.view().iter().collect();
        assert_eq!(pairs, vec![(at(0), 1.0), (at(10), 2.0)]);
    }

    #[test]
    fn strided_view_reads_one_column() {
        // Two interleaved channels over one sealed block and two open
        // frames: column 1 of frame f is 100 + f.
        let frames = BLOCK_FRAMES + 2;
        let times: Vec<SimInstant> = (0..frames as u64).map(|f| at(10 * f)).collect();
        let frame = |f: usize| [f as f64, 100.0 + f as f64];
        let sealed = [Arc::new((0..BLOCK_FRAMES).flat_map(frame).collect())];
        let open: Vec<f64> = (BLOCK_FRAMES..frames).flat_map(frame).collect();
        let v = SeriesView::new(&times, &sealed, &open, 2, 1);
        assert_eq!(v.values().len(), frames);
        assert!(v.values().eq((0..frames).map(|f| 100.0 + f as f64)));
        assert_eq!(v.last(), Some((at(170), 117.0)));
        assert_eq!(v.at_or_before(at(155)), Some(115.0));
        let w = v.window(at(150), at(170));
        assert_eq!(
            w.iter().collect::<Vec<_>>(),
            [(at(150), 115.0), (at(160), 116.0)]
        );
        assert_eq!(w.mean(), Some(115.5));
        assert_eq!(w.window(at(160), at(999)).last(), Some((at(160), 116.0)));
    }
}
