//! The telemetry harness: named channels over frame-major blocks.

use core::fmt;
use std::sync::Arc;

use leakctl_units::{SimDuration, SimInstant};

use crate::series::{Block, Column, SeriesView, BLOCK_FRAMES};
use crate::SensorSpec;

/// Identifier of a channel registered with a [`Csth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ChannelId(pub(crate) usize);

/// Errors produced by the telemetry harness. A rejected call mutates
/// nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryError {
    /// A frame did not carry exactly one value per channel.
    FrameLength {
        /// Registered channel count.
        expected: usize,
        /// Values in the rejected frame.
        got: usize,
    },
    /// A frame was stamped before the previous one.
    TimeRegression {
        /// The rejected frame's time.
        at: SimInstant,
        /// The previous frame's time.
        last: SimInstant,
    },
    /// A frame carried a NaN or infinite value.
    NonFinite {
        /// Name of the first offending channel.
        channel: String,
        /// The rejected frame's time.
        at: SimInstant,
    },
    /// A channel was registered after the first frame was recorded.
    ChannelsFrozen {
        /// Name of the rejected channel.
        channel: String,
    },
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::FrameLength { expected, got } => {
                write!(f, "frame has {got} values for {expected} channels")
            }
            Self::TimeRegression { at, last } => {
                write!(f, "frame at {at} precedes last frame at {last}")
            }
            Self::NonFinite { channel, at } => {
                write!(f, "frame at {at}: channel {channel} is not finite")
            }
            Self::ChannelsFrozen { channel } => {
                write!(f, "cannot add channel {channel} after the first frame")
            }
        }
    }
}

impl std::error::Error for TelemetryError {}

#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct Channel {
    pub(crate) name: String,
    pub(crate) unit: String,
    /// Where the channel's readings sit in a frame.
    pub(crate) column: Column,
}

/// The Continuous System Telemetry Harness: a registry of named,
/// unit-annotated channels sampled together.
///
/// The platform registers one channel per physical sensor (4 CPU
/// temperatures, 32 DIMM temperatures, per-core V/I, system power) and
/// records one *frame* — a value for every channel — per 10-second
/// poll. Storage is frame-major: one timestamp per frame, and the values
/// in row-major `frame × channel` blocks of 16 frames. A channel
/// registered with a quantized [`SensorSpec`] stores each reading
/// `k × q` as its `i16` step count `k`, which decodes to the same bits;
/// the rare reading no `i16` count decodes to (a `-0.0`, an off-grid
/// value, more than 32,767 steps) is kept exactly beside the block.
/// Other channels store f64. A default server's frame is 71 step
/// counts and 2 socket voltages: 158 B plus its 8 B timestamp, against
/// 584 B of f64 readings. Full blocks are sealed, immutable and shared
/// behind [`Arc`], so a clone (a server checkpoint) copies the
/// timestamps, the open block and one pointer per sealed block rather
/// than the whole history. A poll is one append, which the
/// [`SensorBank`](crate::SensorBank) writes straight into the open
/// block, and [`Csth::series`] reads a channel across the blocks as a
/// [`SeriesView`]. Controllers and the characterization pipeline read
/// from here, never from simulator internals.
///
/// # Example
///
/// ```
/// use leakctl_telemetry::{Csth, SensorSpec, CSTH_POLL_PERIOD};
/// use leakctl_units::SimInstant;
///
/// let mut csth = Csth::new(CSTH_POLL_PERIOD);
/// let power = csth
///     .add_measured_channel("system_power", "W", &SensorSpec::system_power_meter())
///     .unwrap();
/// let fan = csth.add_channel("fan_rpm", "RPM").unwrap();
/// csth.record_frame(SimInstant::ZERO, &[502.0, 2400.0]).unwrap();
/// assert_eq!(csth.last(power), Some((SimInstant::ZERO, 502.0)));
/// assert_eq!(csth.series(fan).mean(), Some(2400.0));
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Csth {
    channels: Arc<Vec<Channel>>,
    /// Step counts and raw values per frame.
    coded: usize,
    raw: usize,
    times: Vec<SimInstant>,
    /// Full blocks of `BLOCK_FRAMES` frames, frame `b · BLOCK_FRAMES +
    /// row` in row `row` of block `b`; shared with every clone.
    sealed: Vec<Arc<Block>>,
    /// The 0..`BLOCK_FRAMES` frames after the sealed ones.
    open: Block,
    poll_period: SimDuration,
}

impl Csth {
    /// Creates an empty harness that nominally polls every
    /// `poll_period` (recorded for documentation/CSV metadata; actual
    /// polling cadence is driven by the platform).
    #[must_use]
    pub fn new(poll_period: SimDuration) -> Self {
        Self {
            channels: Arc::default(),
            coded: 0,
            raw: 0,
            times: Vec::new(),
            sealed: Vec::new(),
            open: Block::default(),
            poll_period,
        }
    }

    /// Registers a channel that stores f64 readings and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::ChannelsFrozen`] once a frame has been
    /// recorded: every frame carries the same channels.
    pub fn add_channel(&mut self, name: &str, unit: &str) -> Result<ChannelId, TelemetryError> {
        self.add_measured_channel(name, unit, &SensorSpec::ideal())
    }

    /// Registers the channel a sensor of `spec` reads and returns its
    /// id. A quantized spec (step `q > 0`) stores each reading as its
    /// step count; an ideal one stores f64.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::ChannelsFrozen`] once a frame has been
    /// recorded: every frame carries the same channels.
    pub fn add_measured_channel(
        &mut self,
        name: &str,
        unit: &str,
        spec: &SensorSpec,
    ) -> Result<ChannelId, TelemetryError> {
        if !self.times.is_empty() {
            return Err(TelemetryError::ChannelsFrozen {
                channel: name.to_owned(),
            });
        }
        let column = if spec.is_quantized() {
            self.coded += 1;
            Column::Coded {
                slot: self.coded - 1,
                step: spec.quantization,
            }
        } else {
            self.raw += 1;
            Column::Raw { slot: self.raw - 1 }
        };
        Arc::make_mut(&mut self.channels).push(Channel {
            name: name.to_owned(),
            unit: unit.to_owned(),
            column,
        });
        Ok(ChannelId(self.channels.len() - 1))
    }

    /// Records one frame: a value for every channel, in registration
    /// order, sampled at `at`.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::FrameLength`] when `frame` does not
    /// hold one value per channel, [`TelemetryError::TimeRegression`]
    /// when `at` precedes the last frame, and
    /// [`TelemetryError::NonFinite`] naming the first non-finite
    /// channel. Nothing is recorded on error.
    pub fn record_frame(&mut self, at: SimInstant, frame: &[f64]) -> Result<(), TelemetryError> {
        if frame.len() != self.channels.len() {
            return Err(TelemetryError::FrameLength {
                expected: self.channels.len(),
                got: frame.len(),
            });
        }
        self.write_frame(at, |channels, block| {
            for (c, (channel, &v)) in channels.iter().zip(frame).enumerate() {
                let finite = match channel.column {
                    Column::Coded { step, .. } => block.push_reading(v, step),
                    Column::Raw { .. } => {
                        block.raw.push(v);
                        v.is_finite()
                    }
                };
                if !finite {
                    return Some(c);
                }
            }
            None
        })
    }

    /// Appends one frame at `at` that `write` fills in channel order —
    /// a step count or exact reading per coded channel, a value per raw
    /// one — returning the first non-finite channel, if any. Seals the
    /// open block once it is full. Nothing is recorded on error.
    pub(crate) fn write_frame(
        &mut self,
        at: SimInstant,
        write: impl FnOnce(&[Channel], &mut Block) -> Option<usize>,
    ) -> Result<(), TelemetryError> {
        if let Some(&last) = self.times.last() {
            if at < last {
                return Err(TelemetryError::TimeRegression { at, last });
            }
        }
        let mark = self.open.open_frame(self.coded, self.raw);
        if let Some(c) = write(&self.channels, &mut self.open) {
            self.open.truncate(mark);
            return Err(TelemetryError::NonFinite {
                channel: self.channels[c].name.clone(),
                at,
            });
        }
        assert!(
            self.open.codes.len() == mark[0] + self.coded
                && self.open.raw.len() == mark[1] + self.raw,
            "a frame holds the registered step counts and raw values"
        );
        self.times.push(at);
        if self.times.len() == (self.sealed.len() + 1) * BLOCK_FRAMES {
            self.sealed.push(Arc::new(std::mem::take(&mut self.open)));
        }
        Ok(())
    }

    /// The samples recorded on `channel`, as a borrowed view.
    ///
    /// # Panics
    ///
    /// Panics for a foreign channel id.
    #[must_use]
    pub fn series(&self, channel: ChannelId) -> SeriesView<'_> {
        assert!(
            channel.0 < self.channels.len(),
            "unknown channel id {}",
            channel.0
        );
        SeriesView::new(
            &self.times,
            &self.sealed,
            &self.open,
            (self.coded, self.raw),
            self.channels[channel.0].column,
        )
    }

    /// The latest sample on `channel`, in `O(1)`; `None` before the
    /// first frame or for a foreign channel id.
    #[must_use]
    pub fn last(&self, channel: ChannelId) -> Option<(SimInstant, f64)> {
        if channel.0 >= self.channels.len() {
            return None;
        }
        self.series(channel).last()
    }

    /// The channel's name.
    ///
    /// # Panics
    ///
    /// Panics for a foreign channel id.
    #[must_use]
    pub fn name(&self, channel: ChannelId) -> &str {
        &self.channels[channel.0].name
    }

    /// The channel's unit string.
    ///
    /// # Panics
    ///
    /// Panics for a foreign channel id.
    #[must_use]
    pub fn unit(&self, channel: ChannelId) -> &str {
        &self.channels[channel.0].unit
    }

    /// Looks up a channel by name.
    #[must_use]
    pub fn channel_by_name(&self, name: &str) -> Option<ChannelId> {
        self.channels
            .iter()
            .position(|c| c.name == name)
            .map(ChannelId)
    }

    /// Ids of all channels, in registration order.
    pub fn channels(&self) -> impl Iterator<Item = ChannelId> {
        (0..self.channels.len()).map(ChannelId)
    }

    /// Number of registered channels.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Number of recorded frames.
    #[must_use]
    pub fn frame_count(&self) -> usize {
        self.times.len()
    }

    /// The nominal polling period.
    #[must_use]
    pub fn poll_period(&self) -> SimDuration {
        self.poll_period
    }

    /// Total samples across all channels.
    #[must_use]
    pub fn sample_count(&self) -> usize {
        self.times.len() * self.channels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CSTH_POLL_PERIOD;

    fn at(s: u64) -> SimInstant {
        SimInstant::from_millis(s * 1_000)
    }

    fn two_channels() -> (Csth, ChannelId, ChannelId) {
        let mut csth = Csth::new(CSTH_POLL_PERIOD);
        let cpu0 = csth.add_channel("cpu0_temp", "C").unwrap();
        let cpu1 = csth.add_channel("cpu1_temp", "C").unwrap();
        (csth, cpu0, cpu1)
    }

    #[test]
    fn register_and_record() {
        let (mut csth, cpu0, cpu1) = two_channels();
        csth.record_frame(at(0), &[55.0, 53.0]).unwrap();
        csth.record_frame(at(10), &[57.0, 54.0]).unwrap();
        assert_eq!(csth.series(cpu0).values().collect::<Vec<_>>(), [55.0, 57.0]);
        assert_eq!(csth.series(cpu1).values().collect::<Vec<_>>(), [53.0, 54.0]);
        assert_eq!(csth.last(cpu1), Some((at(10), 54.0)));
        assert_eq!(csth.channel_count(), 2);
        assert_eq!(csth.frame_count(), 2);
        assert_eq!(csth.sample_count(), 4);
        assert_eq!(csth.poll_period(), CSTH_POLL_PERIOD);
    }

    #[test]
    fn lookup_by_name() {
        let mut csth = Csth::new(CSTH_POLL_PERIOD);
        let p = csth.add_channel("system_power", "W").unwrap();
        assert_eq!(csth.channel_by_name("system_power"), Some(p));
        assert_eq!(csth.channel_by_name("nope"), None);
        assert_eq!(csth.name(p), "system_power");
        assert_eq!(csth.unit(p), "W");
    }

    #[test]
    fn unknown_channel_rejected() {
        let (mut csth, _, _) = two_channels();
        assert_eq!(csth.last(ChannelId(3)), None);
        csth.record_frame(at(0), &[1.0, 2.0]).unwrap();
        assert_eq!(csth.last(ChannelId(2)), None, "no read past the frame");
    }

    #[test]
    fn bad_sample_reported_with_channel_name() {
        let (mut csth, cpu0, _) = two_channels();
        csth.record_frame(at(10), &[50.0, 49.0]).unwrap();
        let err = csth.record_frame(at(20), &[51.0, f64::NAN]).unwrap_err();
        assert_eq!(
            err,
            TelemetryError::NonFinite {
                channel: "cpu1_temp".into(),
                at: at(20)
            }
        );
        assert!(err.to_string().contains("cpu1_temp"));
        assert_eq!(
            csth.series(cpu0).len(),
            1,
            "rejected frame recorded nothing"
        );
    }

    #[test]
    fn channels_iterator_in_order() {
        let mut csth = Csth::new(CSTH_POLL_PERIOD);
        let a = csth.add_channel("a", "x").unwrap();
        let b = csth.add_channel("b", "y").unwrap();
        let ids: Vec<ChannelId> = csth.channels().collect();
        assert_eq!(ids, vec![a, b]);
    }

    #[test]
    fn clone_shares_sealed_blocks_not_the_open_one() {
        // A coded diode channel beside a raw one.
        let mut csth = Csth::new(CSTH_POLL_PERIOD);
        let cpu0 = csth
            .add_measured_channel("cpu0_temp", "C", &SensorSpec::cpu_thermal_diode())
            .unwrap();
        csth.add_channel("cpu0_vdd", "V").unwrap();
        for f in 0..2 * BLOCK_FRAMES as u64 + 3 {
            csth.record_frame(at(10 * f), &[f as f64, 1.1]).unwrap();
        }
        assert_eq!(csth.sealed.len(), 2);
        assert_eq!(csth.open.codes.len(), 3);
        assert_eq!(csth.open.raw.len(), 3);
        let mut copy = csth.clone();
        assert!(Arc::ptr_eq(&csth.channels, &copy.channels));
        for (a, b) in csth.sealed.iter().zip(&copy.sealed) {
            assert!(Arc::ptr_eq(a, b), "sealed blocks are shared");
        }
        assert_ne!(
            csth.open.codes.as_ptr(),
            copy.open.codes.as_ptr(),
            "open block is not"
        );
        copy.record_frame(at(1_000), &[-1.5, 1.1]).unwrap();
        assert_eq!(csth.last(cpu0), Some((at(340), 34.0)));
        assert_eq!(copy.last(cpu0), Some((at(1_000), -1.5)));
    }

    #[test]
    fn a_rejected_frame_leaves_the_block_untouched() {
        let mut csth = Csth::new(CSTH_POLL_PERIOD);
        let cpu0 = csth
            .add_measured_channel("cpu0_temp", "C", &SensorSpec::cpu_thermal_diode())
            .unwrap();
        csth.add_channel("cpu0_vdd", "V").unwrap();
        for f in 0..BLOCK_FRAMES as u64 - 1 {
            csth.record_frame(at(10 * f), &[50.0, 1.1]).unwrap();
        }
        let before = csth.open.clone();
        let err = csth.record_frame(at(200), &[50.25, f64::NAN]).unwrap_err();
        assert!(matches!(err, TelemetryError::NonFinite { .. }));
        assert_eq!(csth.open, before, "the off-grid reading's fallback is gone");
        assert!(csth.sealed.is_empty());
        csth.record_frame(at(200), &[50.25, 1.2]).unwrap();
        assert_eq!(csth.sealed.len(), 1, "the sixteenth frame seals");
        assert_eq!(csth.last(cpu0), Some((at(200), 50.25)));
    }
}
