//! Telemetry plausibility scrubbing: the ingestion-side defence against
//! silent data corruption.
//!
//! A flipped bit in a sensor reading does not announce itself — it arrives
//! as a perfectly well-formed sample carrying an impossible value (a
//! negative board power, a 10⁳⁰⁰ °C silicon temperature). Without a
//! plausibility check the corrupted point lands in the TSDB and poisons
//! every downstream aggregate: MTTF dashboards, the thermal-anomaly
//! detector, energy accounting. A [`ScrubPolicy`] installed on the
//! [`crate::collector::Collector`] range-checks each payload as it lands
//! in the store — at delivery while a store is lent to the collector, at
//! the pump otherwise — and implausible samples are quarantined, in
//! arrival order, for the engine to turn into `SdcSuspected` events
//! instead of being ingested.
//! [`ScrubPolicy::range_for`] classifies a topic once, so a consumer can
//! cache its range and check each sample with two compares.
//!
//! The policy is deliberately coarse: ranges are chosen to enclose every
//! value the simulated machine can legitimately produce, so a scrubbing
//! collector is byte-identical to an unscrubbed one on a corruption-free
//! run. Metrics the policy does not know (load averages, counters, network
//! byte rates) always pass.

use crate::payload::Payload;
use crate::topic::Topic;

/// Plugin segment of the fine-grain power publisher's topics.
const POWER_PLUGIN: &str = "pwr_pub";

/// Metric-name prefix of the stats plugin's thermal series.
const TEMPERATURE_PREFIX: &str = "temperature.";

/// Range limits for the metrics a [`ScrubPolicy`] understands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubPolicy {
    /// Admissible board power, watts (inclusive).
    pub power_watts: (f64, f64),
    /// Admissible component temperature, °C (inclusive).
    pub temperature_celsius: (f64, f64),
}

impl ScrubPolicy {
    /// The Monte Cimone envelope: a node draws single-digit watts idle and
    /// tens under HPL, so `[0, 10 kW]` bounds any legitimate sample with
    /// orders of magnitude to spare; component temperatures live between
    /// commercial-silicon storage limits `[-55, 150] °C`. Both ranges are
    /// far outside anything the simulation produces — the scrub only ever
    /// fires on genuinely corrupted payloads.
    pub fn monte_cimone() -> Self {
        ScrubPolicy {
            power_watts: (0.0, 10_000.0),
            temperature_celsius: (-55.0, 150.0),
        }
    }

    /// The admissible value range of `topic`'s metric, or `None` for a
    /// metric the policy does not judge. A value `v` is plausible iff
    /// `lo <= v && v <= hi`: an infinite bound comes back as the largest
    /// finite `f64` of its sign, so the two compares refuse NaN and ±∞ on
    /// every judged metric. The class depends on the topic alone, so a
    /// consumer can classify each topic once and cache it.
    pub fn range_for(&self, topic: &Topic) -> Option<(f64, f64)> {
        let segments = topic.segments();
        let (lo, hi) = if segments.iter().any(|s| s == POWER_PLUGIN) {
            self.power_watts
        } else if segments
            .last()
            .is_some_and(|s| s.starts_with(TEMPERATURE_PREFIX))
        {
            self.temperature_celsius
        } else {
            return None;
        };
        let lo = if lo == f64::NEG_INFINITY {
            f64::MIN
        } else {
            lo
        };
        let hi = if hi == f64::INFINITY { f64::MAX } else { hi };
        Some((lo, hi))
    }

    /// Whether `payload` on `topic` is plausible. Non-finite values on a
    /// known metric are never plausible; metrics the policy does not
    /// recognise always pass.
    pub fn is_plausible(&self, topic: &Topic, payload: &Payload) -> bool {
        self.range_for(topic)
            .is_none_or(|range| admits(range, payload.value))
    }
}

/// Whether `value` lies in a [`ScrubPolicy::range_for`] range.
#[inline]
pub(crate) fn admits((lo, hi): (f64, f64), value: f64) -> bool {
    lo <= value && value <= hi
}

impl Default for ScrubPolicy {
    fn default() -> Self {
        ScrubPolicy::monte_cimone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimone_soc::units::SimTime;

    fn pay(v: f64) -> Payload {
        Payload::new(v, SimTime::ZERO)
    }

    #[test]
    fn power_samples_are_range_checked() {
        let policy = ScrubPolicy::monte_cimone();
        let topic: Topic =
            "org/unibo/cluster/cimone/node/mc-node-00/plugin/pwr_pub/chnl/data/total_power"
                .parse()
                .unwrap();
        assert!(policy.is_plausible(&topic, &pay(5.9)));
        assert!(policy.is_plausible(&topic, &pay(0.0)));
        assert!(!policy.is_plausible(&topic, &pay(-5.9)), "negative watts");
        assert!(!policy.is_plausible(&topic, &pay(1.0e12)));
        assert!(!policy.is_plausible(&topic, &pay(f64::NAN)));
        assert!(!policy.is_plausible(&topic, &pay(f64::INFINITY)));
    }

    #[test]
    fn temperature_metrics_are_range_checked() {
        let policy = ScrubPolicy::monte_cimone();
        let topic: Topic =
            "org/unibo/cluster/cimone/node/mc-node-01/plugin/stats/chnl/data/temperature.cpu_temp"
                .parse()
                .unwrap();
        assert!(policy.is_plausible(&topic, &pay(47.0)));
        assert!(policy.is_plausible(&topic, &pay(-10.0)));
        assert!(!policy.is_plausible(&topic, &pay(1.0e307)));
        assert!(!policy.is_plausible(&topic, &pay(-273.0)));
        assert!(!policy.is_plausible(&topic, &pay(f64::NAN)));
    }

    #[test]
    fn ranges_are_classified_from_the_topic_alone() {
        let policy = ScrubPolicy::monte_cimone();
        let power: Topic = "node/mc-node-00/plugin/pwr_pub/chnl/data/total_power"
            .parse()
            .unwrap();
        let temp: Topic = "node/mc-node-00/plugin/stats/chnl/data/temperature.cpu_temp"
            .parse()
            .unwrap();
        let load: Topic = "node/mc-node-00/plugin/stats/chnl/data/load.load1m"
            .parse()
            .unwrap();
        assert_eq!(policy.range_for(&power), Some(policy.power_watts));
        assert_eq!(policy.range_for(&temp), Some(policy.temperature_celsius));
        assert_eq!(policy.range_for(&load), None);
    }

    #[test]
    fn infinite_bounds_still_refuse_non_finite_values() {
        let policy = ScrubPolicy {
            power_watts: (f64::NEG_INFINITY, f64::INFINITY),
            ..ScrubPolicy::monte_cimone()
        };
        let power: Topic = "node/mc-node-00/plugin/pwr_pub/chnl/data/total_power"
            .parse()
            .unwrap();
        assert_eq!(policy.range_for(&power), Some((f64::MIN, f64::MAX)));
        assert!(policy.is_plausible(&power, &pay(-1.0e308)));
        assert!(!policy.is_plausible(&power, &pay(f64::INFINITY)));
        assert!(!policy.is_plausible(&power, &pay(f64::NEG_INFINITY)));
        assert!(!policy.is_plausible(&power, &pay(f64::NAN)));
    }

    #[test]
    fn unknown_metrics_always_pass() {
        let policy = ScrubPolicy::monte_cimone();
        let topic: Topic =
            "org/unibo/cluster/cimone/node/mc-node-02/plugin/stats/chnl/data/load.load1m"
                .parse()
                .unwrap();
        // Even absurd values pass on metrics without a configured range —
        // the scrub must never quarantine what it cannot judge.
        assert!(policy.is_plausible(&topic, &pay(-1.0e300)));
        assert!(policy.is_plausible(&topic, &pay(f64::NAN)));
    }
}
