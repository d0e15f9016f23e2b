//! Anomaly detection over monitored series.
//!
//! The paper's §V-C shows ExaMon catching a real thermal-runaway: node 7's
//! SoC hit 107 °C during HPL and tripped. [`ThermalRunawayDetector`]
//! combines a level alarm with a rate-of-rise alarm so the incident is
//! flagged *before* the trip point, which is exactly what an ODA stack is
//! for.

use cimone_soc::units::{Celsius, SimDuration, SimTime};

use crate::tsdb::TimeSeriesStore;

/// Alarm severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Worth a look.
    Warning,
    /// Act now.
    Critical,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => f.write_str("WARNING"),
            Severity::Critical => f.write_str("CRITICAL"),
        }
    }
}

/// A raised alarm.
#[derive(Debug, Clone, PartialEq)]
pub struct Alarm {
    /// The series that triggered.
    pub series: String,
    /// When the triggering sample was taken.
    pub at: SimTime,
    /// Severity.
    pub severity: Severity,
    /// Human-readable cause.
    pub message: String,
}

/// Fires when a series crosses a fixed threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdDetector {
    threshold: f64,
    severity: Severity,
}

impl ThresholdDetector {
    /// Creates a detector firing at `value >= threshold`.
    pub fn new(threshold: f64, severity: Severity) -> Self {
        ThresholdDetector {
            threshold,
            severity,
        }
    }

    /// Scans `series` over `[from, to)` and returns the first crossing.
    pub fn scan(
        &self,
        store: &TimeSeriesStore,
        series: &str,
        from: SimTime,
        to: SimTime,
    ) -> Option<Alarm> {
        store
            .query(series, from, to)
            .iter()
            .find(|(_, v)| *v >= self.threshold)
            .map(|(t, v)| Alarm {
                series: series.to_owned(),
                at: t,
                severity: self.severity,
                message: format!("value {v:.1} crossed threshold {:.1}", self.threshold),
            })
    }
}

/// Fires when a series rises faster than a rate limit over a sliding
/// window.
#[derive(Debug, Clone, PartialEq)]
pub struct RateOfRiseDetector {
    /// Maximum tolerated rise per second.
    max_per_second: f64,
    /// Window over which the rate is measured.
    window: SimDuration,
    severity: Severity,
}

impl RateOfRiseDetector {
    /// Creates a detector firing when the series rises faster than
    /// `max_per_second` measured across `window`.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero.
    pub fn new(max_per_second: f64, window: SimDuration, severity: Severity) -> Self {
        assert!(!window.is_zero(), "window must be non-zero");
        RateOfRiseDetector {
            max_per_second,
            window,
            severity,
        }
    }

    /// Scans `series` over `[from, to)`; returns the first too-fast rise.
    pub fn scan(
        &self,
        store: &TimeSeriesStore,
        series: &str,
        from: SimTime,
        to: SimTime,
    ) -> Option<Alarm> {
        // The backward window scan reads points by index.
        let points = store.query(series, from, to).to_vec();
        for (i, (t1, v1)) in points.iter().enumerate() {
            // Find the last point inside the window ending at t1.
            let window_start = if t1.as_micros() >= self.window.as_micros() {
                *t1 - self.window
            } else {
                SimTime::ZERO
            };
            for (t0, v0) in points[..i].iter().rev() {
                if *t0 < window_start {
                    break;
                }
                let dt = (*t1 - *t0).as_secs_f64();
                if dt <= 0.0 {
                    continue;
                }
                let rate = (v1 - v0) / dt;
                if rate > self.max_per_second {
                    return Some(Alarm {
                        series: series.to_owned(),
                        at: *t1,
                        severity: self.severity,
                        message: format!(
                            "rising {rate:.2}/s, faster than {:.2}/s",
                            self.max_per_second
                        ),
                    });
                }
            }
        }
        None
    }
}

/// The combined detector ExaMon would run on `temperature.cpu_temp`.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalRunawayDetector {
    /// Warning level (°C).
    pub warn_level: Celsius,
    /// Critical level (°C): shutdown imminent. Set below the hardware trip
    /// point so a 0.2 Hz sampler still catches the excursion before the
    /// node disappears.
    pub critical_level: Celsius,
    /// Rate alarm.
    pub rate: RateOfRiseDetector,
}

impl ThermalRunawayDetector {
    /// Defaults for the FU740: warn at 85 °C, critical at 102 °C (the
    /// silicon trips at 107 °C — the paper's observed shutdown), rate
    /// alarm above 0.5 °C/s sustained over 30 s.
    pub fn fu740_default() -> Self {
        ThermalRunawayDetector {
            warn_level: Celsius::new(85.0),
            critical_level: Celsius::new(102.0),
            rate: RateOfRiseDetector::new(0.5, SimDuration::from_secs(30), Severity::Warning),
        }
    }

    /// Scans a temperature series; returns all alarms, most severe first.
    pub fn scan(
        &self,
        store: &TimeSeriesStore,
        series: &str,
        from: SimTime,
        to: SimTime,
    ) -> Vec<Alarm> {
        let mut alarms = Vec::new();
        if let Some(a) = ThresholdDetector::new(self.critical_level.as_f64(), Severity::Critical)
            .scan(store, series, from, to)
        {
            alarms.push(a);
        }
        if let Some(a) = ThresholdDetector::new(self.warn_level.as_f64(), Severity::Warning)
            .scan(store, series, from, to)
        {
            alarms.push(a);
        }
        if let Some(a) = self.rate.scan(store, series, from, to) {
            alarms.push(a);
        }
        alarms.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.at.cmp(&b.at)));
        alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use crate::topic::Topic;

    fn temp_series(values: &[(u64, f64)]) -> (TimeSeriesStore, String) {
        let mut db = TimeSeriesStore::new();
        let topic: Topic = "node/mc-node-07/temp".parse().unwrap();
        for (t, v) in values {
            db.insert(&topic, Payload::new(*v, SimTime::from_secs(*t)));
        }
        (db, topic.to_string())
    }

    #[test]
    fn threshold_fires_at_first_crossing() {
        let (db, series) = temp_series(&[(0, 50.0), (10, 90.0), (20, 95.0)]);
        let det = ThresholdDetector::new(85.0, Severity::Warning);
        let alarm = det
            .scan(&db, &series, SimTime::ZERO, SimTime::from_secs(100))
            .unwrap();
        assert_eq!(alarm.at, SimTime::from_secs(10));
        assert_eq!(alarm.severity, Severity::Warning);
    }

    #[test]
    fn threshold_stays_quiet_below() {
        let (db, series) = temp_series(&[(0, 50.0), (10, 60.0)]);
        let det = ThresholdDetector::new(85.0, Severity::Warning);
        assert!(det
            .scan(&db, &series, SimTime::ZERO, SimTime::from_secs(100))
            .is_none());
    }

    #[test]
    fn rate_detector_catches_fast_rises_only() {
        // 2 °C/s rise between t=10 and t=15.
        let (db, series) = temp_series(&[(0, 40.0), (10, 41.0), (15, 51.0)]);
        let det = RateOfRiseDetector::new(0.5, SimDuration::from_secs(30), Severity::Warning);
        let alarm = det
            .scan(&db, &series, SimTime::ZERO, SimTime::from_secs(100))
            .unwrap();
        assert_eq!(alarm.at, SimTime::from_secs(15));

        // Slow drift stays quiet.
        let (slow, series2) = temp_series(&[(0, 40.0), (100, 45.0)]);
        assert!(det
            .scan(&slow, &series2, SimTime::ZERO, SimTime::from_secs(200))
            .is_none());
    }

    #[test]
    fn runaway_detector_reports_trip_as_critical_first() {
        // The paper's incident: climb through warning to the 107 °C trip.
        let (db, series) = temp_series(&[(0, 60.0), (30, 75.0), (60, 90.0), (90, 107.0)]);
        let det = ThermalRunawayDetector::fu740_default();
        let alarms = det.scan(&db, &series, SimTime::ZERO, SimTime::from_secs(200));
        assert!(alarms.len() >= 2);
        assert_eq!(alarms[0].severity, Severity::Critical);
        assert_eq!(alarms[0].at, SimTime::from_secs(90));
    }

    #[test]
    fn healthy_node_raises_nothing() {
        let (db, series) = temp_series(&[(0, 38.0), (60, 39.0), (120, 39.5)]);
        let det = ThermalRunawayDetector::fu740_default();
        assert!(det
            .scan(&db, &series, SimTime::ZERO, SimTime::from_secs(200))
            .is_empty());
    }
}
