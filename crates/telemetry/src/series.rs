//! Timestamped sample series: the coded block storage of a capture, a
//! borrowed view of one channel with the summary statistics, and its
//! owned form.

use std::sync::Arc;

use leakctl_units::SimInstant;

/// Frames per sealed block of a [`Csth`](crate::Csth) capture.
pub(crate) const BLOCK_FRAMES: usize = 16;

/// The step count standing in for a reading that no `i16` count
/// decodes to bit for bit; the block's `exact` list holds the reading.
const ESCAPE: i16 = i16::MIN;

/// Where a channel's readings sit in each frame of a [`Block`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) enum Column {
    /// A quantized channel: `codes[row · coded + slot]` holds the step
    /// count `k` of a reading `k × step`.
    Coded {
        /// The channel's place among the frame's codes.
        slot: usize,
        /// The quantization step.
        step: f64,
    },
    /// Any other channel: `raw[row · raw + slot]` holds the reading.
    Raw {
        /// The channel's place among the frame's raw values.
        slot: usize,
    },
}

impl Column {
    /// The quantization step, or 0 for a raw channel.
    pub(crate) fn step(self) -> f64 {
        match self {
            Self::Coded { step, .. } => step,
            Self::Raw { .. } => 0.0,
        }
    }
}

/// Up to [`BLOCK_FRAMES`] frames, row-major: each frame's step counts in
/// `codes`, then its unquantized values in `raw`.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) struct Block {
    pub(crate) codes: Vec<i16>,
    pub(crate) raw: Vec<f64>,
    /// `(position in codes, reading)` of every [`ESCAPE`] code, in
    /// position order: `-0.0`, off-grid readings and counts beyond
    /// `i16`.
    exact: Vec<(u32, f64)>,
}

/// Makes room for one more frame of `width` values: a block's first
/// frame reserves one frame, later frames double the room, so a full
/// block holds exactly [`BLOCK_FRAMES`] frames and no poll allocates a
/// whole block at once.
fn reserve_frame<T>(values: &mut Vec<T>, width: usize) {
    if values.capacity() - values.len() < width {
        values.reserve_exact(values.len().max(width));
    }
}

impl Block {
    /// Makes room for one frame of `coded` step counts and `raw`
    /// values, and returns the lengths [`Self::truncate`] restores.
    pub(crate) fn open_frame(&mut self, coded: usize, raw: usize) -> [usize; 3] {
        reserve_frame(&mut self.codes, coded);
        reserve_frame(&mut self.raw, raw);
        [self.codes.len(), self.raw.len(), self.exact.len()]
    }

    /// Drops a partly written frame.
    pub(crate) fn truncate(&mut self, [codes, raw, exact]: [usize; 3]) {
        self.codes.truncate(codes);
        self.raw.truncate(raw);
        self.exact.truncate(exact);
    }

    /// Appends the reading `count × step` as its step count `count`, or
    /// exactly through the fallback when `count` is not an `i16` whose
    /// decoding has the same bits (a `-0.0`, a count out of range, a
    /// fraction, a non-finite value). Returns whether the reading is
    /// finite.
    #[inline]
    pub(crate) fn push_count(&mut self, count: f64, step: f64) -> bool {
        let code = count as i16;
        if code != ESCAPE && f64::from(code).to_bits() == count.to_bits() {
            self.codes.push(code);
            true
        } else {
            self.push_exact(count * step)
        }
    }

    /// Appends `reading` to a coded channel of quantization `step`: as
    /// its step count when that decodes to the same bits, exactly
    /// otherwise. Returns whether the reading is finite.
    pub(crate) fn push_reading(&mut self, reading: f64, step: f64) -> bool {
        let count = (reading / step).round();
        if (count * step).to_bits() == reading.to_bits() {
            self.push_count(count, step)
        } else {
            self.push_exact(reading)
        }
    }

    #[cold]
    fn push_exact(&mut self, reading: f64) -> bool {
        let at = u32::try_from(self.codes.len()).expect("a block's codes fit u32");
        self.exact.push((at, reading));
        self.codes.push(ESCAPE);
        reading.is_finite()
    }

    /// The reading of `column` in frame `row`, each frame holding
    /// `coded` step counts and `raw` values.
    fn read(&self, column: Column, coded: usize, raw: usize, row: usize) -> f64 {
        match column {
            Column::Coded { slot, step } => {
                let at = row * coded + slot;
                match self.codes[at] {
                    ESCAPE => {
                        let i = self
                            .exact
                            .binary_search_by_key(&at, |&(p, _)| p as usize)
                            .expect("every escape code has its exact reading");
                        self.exact[i].1
                    }
                    k => f64::from(k) * step,
                }
            }
            Column::Raw { slot } => self.raw[row * raw + slot],
        }
    }
}

/// A read-only view of one channel's `(time, value)` samples.
///
/// The view reads one channel across the blocks of a
/// [`Csth`](crate::Csth) capture without copying, and reads a
/// [`TimeSeries`] as a single block. A quantized channel decodes each
/// stored step count `k` as `k × q`, the reading its sensor took, bit for
/// bit. Times are non-decreasing, which keeps windowed queries
/// `O(log n)`. This is the one home of the series statistics.
#[derive(Debug, Clone, Copy)]
pub struct SeriesView<'a> {
    times: &'a [SimInstant],
    // Sample `i` is frame `first + i` of `sealed` (full blocks of
    // `BLOCK_FRAMES` frames) followed by `open`; each frame holds
    // `coded` step counts and `raw` values, this channel at `column`.
    sealed: &'a [Arc<Block>],
    open: &'a Block,
    first: usize,
    coded: usize,
    raw: usize,
    column: Column,
}

impl<'a> SeriesView<'a> {
    /// A view of every frame in `sealed` then `open`, one time per frame,
    /// reading `column` of frames `coded` step counts and `raw` values
    /// wide.
    pub(crate) fn new(
        times: &'a [SimInstant],
        sealed: &'a [Arc<Block>],
        open: &'a Block,
        (coded, raw): (usize, usize),
        column: Column,
    ) -> Self {
        debug_assert!(
            match column {
                Column::Coded { slot, .. } => slot < coded,
                Column::Raw { slot } => slot < raw,
            },
            "a series view reads inside the frame"
        );
        debug_assert_eq!(
            [coded, raw].map(|width| (times.len() - sealed.len() * BLOCK_FRAMES) * width),
            [open.codes.len(), open.raw.len()],
            "one time per frame"
        );
        Self {
            times,
            sealed,
            open,
            first: 0,
            coded,
            raw,
            column,
        }
    }

    fn value(&self, i: usize) -> f64 {
        let frame = self.first + i;
        let block = frame / BLOCK_FRAMES;
        let (values, row) = match self.sealed.get(block) {
            Some(values) => (&**values, frame % BLOCK_FRAMES),
            None => (self.open, frame - self.sealed.len() * BLOCK_FRAMES),
        };
        values.read(self.column, self.coded, self.raw, row)
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
    /// One block of one raw value per sample.
    values: Block,
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
        self.values.raw.push(value);
        Ok(())
    }

    /// The statistics view over every sample.
    #[must_use]
    pub fn view(&self) -> SeriesView<'_> {
        SeriesView::new(
            &self.times,
            &[],
            &self.values,
            (0, 1),
            Column::Raw { slot: 0 },
        )
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
        assert_eq!(v.last(), None);
        assert!(v.window(at(0), at(10)).is_empty());
    }

    #[test]
    fn rejects_time_regression_and_nan() {
        let mut s = series(&[(10, 1.0)]);
        assert!(s.push(at(5), 2.0).is_err());
        assert!(s.push(at(10), 2.0).is_ok(), "equal timestamps allowed");
        assert!(s.push(at(11), f64::NAN).is_err());
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
    fn iter_yields_pairs() {
        let s = series(&[(0, 1.0), (10, 2.0)]);
        let pairs: Vec<_> = s.view().iter().collect();
        assert_eq!(pairs, vec![(at(0), 1.0), (at(10), 2.0)]);
    }

    /// A block of one coded channel (0.5 steps, step count `f` in
    /// frame `f`) and one raw channel (`100 + f`).
    fn two_channel_block(frames: core::ops::Range<usize>) -> Block {
        let mut block = Block::default();
        for f in frames {
            block.open_frame(1, 1);
            assert!(block.push_count(f as f64, 0.5));
            block.raw.push(100.0 + f as f64);
        }
        block
    }

    #[test]
    fn strided_view_reads_one_column() {
        // One sealed block and two open frames, read by either column.
        let frames = BLOCK_FRAMES + 2;
        let times: Vec<SimInstant> = (0..frames as u64).map(|f| at(10 * f)).collect();
        let sealed = [Arc::new(two_channel_block(0..BLOCK_FRAMES))];
        let open = two_channel_block(BLOCK_FRAMES..frames);
        let coded = Column::Coded { slot: 0, step: 0.5 };
        let halves = SeriesView::new(&times, &sealed, &open, (1, 1), coded);
        assert!(halves.values().eq((0..frames).map(|f| 0.5 * f as f64)));
        assert_eq!(halves.last(), Some((at(170), 8.5)));
        let v = SeriesView::new(&times, &sealed, &open, (1, 1), Column::Raw { slot: 0 });
        assert_eq!(v.values().len(), frames);
        assert!(v.values().eq((0..frames).map(|f| 100.0 + f as f64)));
        assert_eq!(v.last(), Some((at(170), 117.0)));
        let w = v.window(at(150), at(170));
        assert_eq!(
            w.iter().collect::<Vec<_>>(),
            [(at(150), 115.0), (at(160), 116.0)]
        );
        assert_eq!(w.mean(), Some(115.5));
        assert_eq!(w.window(at(160), at(999)).last(), Some((at(160), 116.0)));
    }

    #[test]
    fn full_block_holds_exactly_its_frames() {
        // A default server's frame: 71 step counts and 2 raw values.
        let mut block = Block::default();
        for f in 0..BLOCK_FRAMES {
            block.open_frame(71, 2);
            for c in 0..71 {
                assert!(block.push_count((f * c) as f64, 0.5));
            }
            block.raw.extend([1.1, 1.2]);
            let room = (f + 1).next_power_of_two();
            assert_eq!(block.codes.capacity(), 71 * room, "frame {f}");
            assert_eq!(block.raw.capacity(), 2 * room, "frame {f}");
        }
        assert_eq!(block.codes.capacity(), 71 * BLOCK_FRAMES);
        assert_eq!(block.raw.capacity(), 2 * BLOCK_FRAMES);
    }

    #[test]
    fn readings_no_code_holds_read_back_exactly() {
        let step = 0.001;
        // `(reading, stored as a step count)`.
        let readings = [
            (0.0, true),
            (1234.0 * step, true),
            (32767.0 * step, true),
            (-0.0, false),
            (40_000.0 * step, false),
            (-32768.0 * step, false),
            (f64::MAX, false),
            (0.0005, false),
        ];
        let mut block = Block::default();
        block.open_frame(readings.len(), 0);
        for (reading, _) in readings {
            assert!(block.push_reading(reading, step));
        }
        for (slot, (want, coded)) in readings.into_iter().enumerate() {
            assert_eq!(block.codes[slot] != ESCAPE, coded, "slot {slot}: {want}");
            let got = block.read(Column::Coded { slot, step }, readings.len(), 0, 0);
            assert_eq!(got.to_bits(), want.to_bits(), "slot {slot}: {want}");
        }
        assert!(!block.push_count(f64::NAN, step));
        assert!(!block.push_reading(f64::INFINITY, step));
    }
}
