//! CSV export/import for [`Csth`] captures.
//!
//! Long format, one sample per row:
//!
//! ```csv
//! time_s,channel,unit,value
//! 0.000,cpu0_temp,C,55.0
//! ```
//!
//! Implemented in-repo (no external CSV crate): channel names are
//! identifier-like and values numeric, so no quoting is required; the
//! writer rejects names containing commas rather than quoting them.

use core::fmt;

use leakctl_units::{SimDuration, SimInstant};

use crate::harness::Csth;
use crate::series::TimeSeries;

/// Errors produced by CSV import/export.
#[derive(Debug, Clone, PartialEq)]
pub enum CsvError {
    /// A channel name or unit contains a character the simple writer
    /// cannot represent (comma or newline).
    UnrepresentableName {
        /// The offending name.
        name: String,
    },
    /// The input did not start with the expected header.
    BadHeader,
    /// A data row could not be parsed.
    BadRow {
        /// 1-based line number.
        line: usize,
        /// Parse problem description.
        reason: String,
    },
    /// A channel was not sampled at the same instants as the first
    /// channel, so the capture does not form whole frames.
    RaggedChannel {
        /// The offending channel.
        channel: String,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnrepresentableName { name } => {
                write!(f, "channel name {name:?} contains ',' or a newline")
            }
            Self::BadHeader => write!(f, "missing or malformed CSV header"),
            Self::BadRow { line, reason } => write!(f, "line {line}: {reason}"),
            Self::RaggedChannel { channel } => {
                write!(
                    f,
                    "channel {channel} is not sampled with the other channels"
                )
            }
        }
    }
}

impl std::error::Error for CsvError {}

const HEADER: &str = "time_s,channel,unit,value";

impl Csth {
    /// Serializes every channel to long-format CSV.
    ///
    /// # Errors
    ///
    /// Returns [`CsvError::UnrepresentableName`] when a channel name or
    /// unit contains a comma or newline.
    pub fn to_csv(&self) -> Result<String, CsvError> {
        let mut out = String::from(HEADER);
        out.push('\n');
        for id in self.channels() {
            let (name, unit) = (self.name(id), self.unit(id));
            for field in [name, unit] {
                if field.contains(',') || field.contains('\n') {
                    return Err(CsvError::UnrepresentableName {
                        name: field.to_owned(),
                    });
                }
            }
            for (t, v) in self.series(id).iter() {
                out.push_str(&format!("{:.3},{},{},{}\n", t.as_secs_f64(), name, unit, v));
            }
        }
        Ok(out)
    }

    /// Parses a capture previously produced by [`Csth::to_csv`].
    ///
    /// Channels appear in first-encounter order and must all be sampled
    /// at the same instants — one frame per instant; `poll_period` is
    /// attached as metadata.
    ///
    /// # Errors
    ///
    /// Returns [`CsvError::BadHeader`] or [`CsvError::BadRow`] for
    /// malformed input, and [`CsvError::RaggedChannel`] when a channel's
    /// timestamps differ from the first channel's.
    pub fn from_csv(input: &str, poll_period: SimDuration) -> Result<Self, CsvError> {
        let mut lines = input.lines().enumerate();
        match lines.next() {
            Some((_, h)) if h.trim() == HEADER => {}
            _ => return Err(CsvError::BadHeader),
        }
        // `(name, unit)` in first-encounter order.
        let mut channels: Vec<(&str, &str)> = Vec::new();
        let mut columns: Vec<TimeSeries> = Vec::new();
        for (idx, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let line_no = idx + 1;
            let parts: Vec<&str> = line.split(',').collect();
            if parts.len() != 4 {
                return Err(CsvError::BadRow {
                    line: line_no,
                    reason: format!("expected 4 fields, got {}", parts.len()),
                });
            }
            let secs: f64 = parts[0].parse().map_err(|e| CsvError::BadRow {
                line: line_no,
                reason: format!("bad time: {e}"),
            })?;
            let value: f64 = parts[3].parse().map_err(|e| CsvError::BadRow {
                line: line_no,
                reason: format!("bad value: {e}"),
            })?;
            let (name, unit) = (parts[1], parts[2]);
            let slot = match channels.iter().position(|&(n, _)| n == name) {
                Some(i) => i,
                None => {
                    channels.push((name, unit));
                    columns.push(TimeSeries::new());
                    channels.len() - 1
                }
            };
            columns[slot]
                .push(
                    SimInstant::from_millis((secs * 1_000.0).round() as u64),
                    value,
                )
                .map_err(|reason| CsvError::BadRow {
                    line: line_no,
                    reason,
                })?;
        }
        let times = columns
            .first()
            .map(|c| c.view().times().to_vec())
            .unwrap_or_default();
        if let Some(c) = columns.iter().position(|c| c.view().times() != times) {
            return Err(CsvError::RaggedChannel {
                channel: channels[c].0.to_owned(),
            });
        }
        let mut csth = Csth::new(poll_period);
        for (name, unit) in channels {
            csth.add_channel(name, unit)
                .expect("before the first frame");
        }
        let mut readers: Vec<_> = columns.iter().map(|c| c.view().values()).collect();
        let mut frame = Vec::with_capacity(readers.len());
        for &at in &times {
            frame.clear();
            frame.extend(readers.iter_mut().filter_map(Iterator::next));
            csth.record_frame(at, &frame)
                .expect("whole frames of finite values in time order");
        }
        Ok(csth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CSTH_POLL_PERIOD;

    fn capture() -> Csth {
        let mut csth = Csth::new(CSTH_POLL_PERIOD);
        csth.add_channel("cpu0_temp", "C").unwrap();
        csth.add_channel("system_power", "W").unwrap();
        for i in 0u64..5 {
            let at = SimInstant::from_millis(i * 10_000);
            csth.record_frame(at, &[50.0 + i as f64, 500.0 + 2.0 * i as f64])
                .unwrap();
        }
        csth
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = capture();
        let csv = original.to_csv().unwrap();
        let parsed = Csth::from_csv(&csv, CSTH_POLL_PERIOD).unwrap();
        assert_eq!(parsed.channel_count(), 2);
        let t = parsed.channel_by_name("cpu0_temp").unwrap();
        let p = parsed.channel_by_name("system_power").unwrap();
        assert_eq!(parsed.unit(t), "C");
        assert_eq!(parsed.unit(p), "W");
        assert!(parsed.series(t).values().eq(original
            .series(original.channel_by_name("cpu0_temp").unwrap())
            .values()));
        assert_eq!(
            parsed.series(p).times(),
            original
                .series(original.channel_by_name("system_power").unwrap())
                .times()
        );
        assert_eq!(parsed.to_csv().unwrap(), csv, "re-export is byte-identical");
    }

    #[test]
    fn header_written_once() {
        let csv = capture().to_csv().unwrap();
        assert!(csv.starts_with("time_s,channel,unit,value\n"));
        assert_eq!(csv.matches("time_s").count(), 1);
        assert_eq!(csv.lines().count(), 11); // header + 10 samples
    }

    #[test]
    fn rejects_comma_in_name() {
        let mut csth = Csth::new(CSTH_POLL_PERIOD);
        csth.add_channel("bad,name", "C").unwrap();
        csth.record_frame(SimInstant::ZERO, &[1.0]).unwrap();
        assert!(matches!(
            csth.to_csv(),
            Err(CsvError::UnrepresentableName { .. })
        ));
    }

    #[test]
    fn rejects_bad_header() {
        assert_eq!(
            Csth::from_csv("nope\n1,2,3,4", CSTH_POLL_PERIOD).unwrap_err(),
            CsvError::BadHeader
        );
        assert_eq!(
            Csth::from_csv("", CSTH_POLL_PERIOD).unwrap_err(),
            CsvError::BadHeader
        );
    }

    #[test]
    fn rejects_malformed_rows() {
        let base = "time_s,channel,unit,value\n";
        let wrong_fields = format!("{base}1.0,cpu,C\n");
        assert!(matches!(
            Csth::from_csv(&wrong_fields, CSTH_POLL_PERIOD),
            Err(CsvError::BadRow { line: 2, .. })
        ));
        let bad_value = format!("{base}1.0,cpu,C,abc\n");
        assert!(matches!(
            Csth::from_csv(&bad_value, CSTH_POLL_PERIOD),
            Err(CsvError::BadRow { .. })
        ));
        let bad_time = format!("{base}xyz,cpu,C,1.0\n");
        assert!(matches!(
            Csth::from_csv(&bad_time, CSTH_POLL_PERIOD),
            Err(CsvError::BadRow { .. })
        ));
    }

    #[test]
    fn empty_lines_skipped() {
        let csv = "time_s,channel,unit,value\n\n1.0,cpu,C,50.0\n\n";
        let parsed = Csth::from_csv(csv, CSTH_POLL_PERIOD).unwrap();
        assert_eq!(parsed.sample_count(), 1);
    }

    #[test]
    fn error_display() {
        let e = CsvError::BadRow {
            line: 3,
            reason: "x".into(),
        };
        assert!(e.to_string().contains("line 3"));
        assert!(CsvError::BadHeader.to_string().contains("header"));
    }
}
