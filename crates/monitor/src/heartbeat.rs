//! Heartbeat tracking and phi-accrual failure detection.
//!
//! Monte Cimone's engine previously learned of node crashes by oracle; in a
//! real cluster the only signal is the *absence* of telemetry. Each node
//! publishes a periodic heartbeat through the ExaMon broker, and a
//! [`PhiAccrualDetector`] (Hayashibara et al., "The φ accrual failure
//! detector", SRDS 2004 — the detector used by Akka and Cassandra) converts
//! the time since the last arrival into a continuous suspicion level:
//!
//! ```text
//! phi(t_now) = -log10( P_later(t_now - t_last) )
//! ```
//!
//! where `P_later` is the probability that a heartbeat arrives later than
//! the elapsed silence, under a normal distribution fitted to the observed
//! inter-arrival window. `phi = 8` means the detector would be wrong about
//! one suspicion in 10⁸ — crossing a configured threshold trades detection
//! latency against false positives, and broker message loss or partitions
//! (which starve the stream) can push phi over the line for a healthy node.

use std::collections::{BTreeMap, VecDeque};

use cimone_soc::units::{SimDuration, SimTime};

use crate::broker::{Broker, Subscription};
use crate::topic::TopicFilter;

/// Default suspicion threshold (Akka's default is 8.0: a false positive
/// about once per 10⁸ evaluations under the fitted distribution).
pub const DEFAULT_PHI_THRESHOLD: f64 = 8.0;

/// Default bound on the inter-arrival window the distribution is fitted to.
pub const DEFAULT_WINDOW: usize = 128;

/// Inter-arrival intervals required before the detector reports a nonzero
/// phi (guards against suspecting nodes during start-up).
pub const MIN_SAMPLES: usize = 3;

/// Upper clamp on reported phi (beyond this the distinction is meaningless
/// and the arithmetic underflows).
pub const PHI_CEILING: f64 = 100.0;

/// Complementary error function with fractional error below `1.2e-7`
/// everywhere (Numerical Recipes' `erfcc` Chebyshev fit). The error is
/// *relative*, so deep-tail probabilities — exactly what phi measures —
/// stay meaningful.
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Per-node phi-accrual state: a sliding window of heartbeat inter-arrival
/// times and the time of the last arrival.
///
/// # Examples
///
/// ```
/// use cimone_monitor::heartbeat::PhiAccrualDetector;
/// use cimone_soc::units::SimTime;
///
/// let mut det = PhiAccrualDetector::new(128);
/// for s in (0..50).step_by(5) {
///     det.record(SimTime::from_secs(s));
/// }
/// // On cadence: barely suspicious. After 20 s of silence: very.
/// assert!(det.phi(SimTime::from_secs(50)) < 1.0);
/// assert!(det.phi(SimTime::from_secs(65)) > 8.0);
/// ```
#[derive(Debug, Clone)]
pub struct PhiAccrualDetector {
    window: usize,
    intervals: VecDeque<f64>,
    last_arrival: Option<SimTime>,
    /// How much slower than nominal this node is *expected* to beat (1.0 =
    /// nominal). A DVFS-capped node's health daemon runs at the capped
    /// clock, so its silence must be judged against the scaled cadence;
    /// without this, graceful degradation reads as a crash.
    expected_scale: f64,
    /// When a heartbeat *actually* arrived last (unlike `last_arrival`,
    /// never moved by [`PhiAccrualDetector::rebaseline`]) — the freshness
    /// signal a partition-aware control plane compares peers against.
    last_heard: Option<SimTime>,
    /// Set by a rebaseline: the next recorded interval would span the
    /// deferred silence, not a real cadence gap, so it is dropped instead
    /// of polluting the fitted window.
    skip_next_sample: bool,
    /// The normal fit `(mean, sigma)` of the window, refreshed whenever
    /// [`PhiAccrualDetector::record`] changes the window; `None` until
    /// [`MIN_SAMPLES`] intervals are in it. Every `phi` reads it, so a
    /// query costs O(1) instead of a pass over the window.
    fit: Option<(f64, f64)>,
}

impl PhiAccrualDetector {
    /// A detector fitting at most `window` recent inter-arrival intervals.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2` (a distribution needs at least two samples).
    pub fn new(window: usize) -> Self {
        assert!(window >= 2, "phi window needs at least two intervals");
        PhiAccrualDetector {
            window,
            intervals: VecDeque::new(),
            last_arrival: None,
            expected_scale: 1.0,
            last_heard: None,
            skip_next_sample: false,
            fit: None,
        }
    }

    /// Declares that the node is expected to beat `scale`× slower than
    /// nominal (DVFS cap or throttle; 1.0 restores nominal). Both recorded
    /// intervals and elapsed silence are normalised by the scale, so the
    /// fitted distribution stays on the nominal-cadence axis and a capped
    /// node accrues no spurious suspicion.
    ///
    /// # Panics
    ///
    /// Panics unless the scale is finite and positive.
    pub fn set_expected_scale(&mut self, scale: f64) {
        assert!(
            scale.is_finite() && scale > 0.0,
            "expected scale must be finite and positive"
        );
        self.expected_scale = scale;
    }

    /// The declared cadence scale (1.0 = nominal).
    pub fn expected_scale(&self) -> f64 {
        self.expected_scale
    }

    /// Records a heartbeat arrival. Out-of-order or duplicate timestamps
    /// (possible after broker replays) are ignored.
    pub fn record(&mut self, at: SimTime) {
        if let Some(last) = self.last_arrival {
            if at <= last {
                return;
            }
            if self.skip_next_sample {
                // The gap spans a deferred-silence rebaseline, not a real
                // cadence interval: advance the clock, drop the sample.
                self.skip_next_sample = false;
            } else {
                if self.intervals.len() == self.window {
                    self.intervals.pop_front();
                }
                self.intervals
                    .push_back(at.saturating_since(last).as_secs_f64() / self.expected_scale);
                self.refit();
            }
        }
        self.last_arrival = Some(at);
        self.last_heard = Some(at);
    }

    /// Refits the normal distribution to the window. The fitted standard
    /// deviation is floored at a quarter of the mean interval so a
    /// metronomic stream (σ → 0) does not make a single lost heartbeat
    /// look like a crash: with the floor, one missed beat reaches
    /// phi ≈ 4.5 and two missed beats ≈ 15, bracketing the default
    /// threshold of 8.
    fn refit(&mut self) {
        if self.intervals.len() < MIN_SAMPLES {
            return;
        }
        let mean = self.mean_interval().expect("window is non-empty");
        let var = self
            .intervals
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / self.intervals.len() as f64;
        let sigma = var.sqrt().max(0.25 * mean).max(1e-6);
        self.fit = Some((mean, sigma));
    }

    /// Moves the silence reference to `at` without recording an arrival:
    /// phi re-accrues from `at`, the fitted window is untouched, and the
    /// next real arrival's interval (which would span the deferred
    /// silence) is dropped. This is how a partition-aware control plane
    /// *defers* suspicion across a correlated outage instead of letting
    /// the whole outage count as per-node silence. Backwards moves are
    /// ignored.
    pub fn rebaseline(&mut self, at: SimTime) {
        if self.last_arrival.is_none_or(|last| at > last) {
            self.last_arrival = Some(at);
            self.skip_next_sample = true;
        }
    }

    /// When the last heartbeat arrived (or the silence reference was last
    /// moved by [`PhiAccrualDetector::rebaseline`]), if ever.
    pub fn last_arrival(&self) -> Option<SimTime> {
        self.last_arrival
    }

    /// When a heartbeat last *actually* arrived — never moved by
    /// [`PhiAccrualDetector::rebaseline`].
    pub fn last_heard(&self) -> Option<SimTime> {
        self.last_heard
    }

    /// Heartbeat arrivals observed (intervals + 1), zero if none.
    pub fn samples(&self) -> usize {
        match self.last_arrival {
            Some(_) => self.intervals.len() + 1,
            None => 0,
        }
    }

    /// Mean of the windowed inter-arrival intervals, seconds.
    pub fn mean_interval(&self) -> Option<f64> {
        if self.intervals.is_empty() {
            return None;
        }
        Some(self.intervals.iter().sum::<f64>() / self.intervals.len() as f64)
    }

    /// The suspicion level at `now`: `-log10 P(heartbeat arrives later)`
    /// under the window's normal fit (see [`PhiAccrualDetector::record`]).
    ///
    /// Returns `0.0` until [`MIN_SAMPLES`] intervals are observed.
    pub fn phi(&self, now: SimTime) -> f64 {
        let (Some(last), Some((mean, sigma))) = (self.last_arrival, self.fit) else {
            return 0.0;
        };
        let elapsed = now.saturating_since(last).as_secs_f64() / self.expected_scale;
        let z = (elapsed - mean) / sigma;
        // P(X > elapsed) for X ~ N(mean, sigma²).
        let p_later = 0.5 * erfc(z / std::f64::consts::SQRT_2);
        if p_later <= 0.0 {
            return PHI_CEILING;
        }
        (-p_later.log10()).clamp(0.0, PHI_CEILING)
    }

    /// The first grid tick at which phi reaches `threshold`, assuming no
    /// further arrivals: of the ticks `from + k·step` for `k ≥ 0` up to
    /// and including the last one ≤ `to`, the smallest whose phi is
    /// ≥ `threshold` (`None` if none crosses within the horizon).
    ///
    /// With the detector state frozen, `phi` is monotone non-decreasing in
    /// `now` (longer silence is never less suspicious), so the crossing is
    /// solved rather than searched: the fit's normal quantile for
    /// `p = 10^-threshold` guesses the tick, and the exact predicate
    /// `phi(from + k·step) ≥ threshold` settles it — galloping away from
    /// the guess until the boundary is bracketed, then bisecting. The
    /// guess is usually exact, so a search costs about two `phi` calls,
    /// and the answer is the tick a fixed-dt loop would flag. This is what
    /// lets a due-time clock treat suspicion as an event instead of
    /// re-evaluating phi every tick.
    pub fn first_crossing(
        &self,
        threshold: f64,
        from: SimTime,
        to: SimTime,
        step: SimDuration,
    ) -> Option<SimTime> {
        if step.is_zero() || to < from {
            return None;
        }
        let crossed = |k: u64| self.phi(from + step * k) >= threshold;
        let Some((mean, sigma)) = self.fit else {
            // No fit: phi is 0 at every tick.
            return crossed(0).then_some(from);
        };
        let k_max = to.saturating_since(from).as_micros() / step.as_micros();
        // Guess: the silence at which the fit's upper tail falls to
        // 10^-threshold, as a grid index. A non-finite guess (a negative
        // threshold, or one beyond f64's range) starts at `from`.
        let last = self.last_arrival.expect("a fit implies an arrival");
        let silence_us =
            (mean + normal_upper_quantile(threshold) * sigma) * self.expected_scale * 1e6;
        let k_guess = ((last.as_micros() as f64 + silence_us - from.as_micros() as f64)
            / step.as_micros() as f64)
            .ceil();
        let seed = if k_guess.is_finite() {
            (k_guess.max(0.0) as u64).min(k_max)
        } else {
            0
        };
        settle(seed, k_max, crossed).map(|k| from + step * k)
    }
}

/// The smallest `k` in `0..=k_max` for which the monotone predicate
/// `crossed` holds, searched from `seed ≤ k_max`: gallops away from the
/// seed in doubling strides until `!crossed(lo) && crossed(hi)`, then
/// bisects. Costs two calls when the seed is the answer (one when it is
/// 0), and O(log d) for a seed `d` indices off.
fn settle(seed: u64, k_max: u64, crossed: impl Fn(u64) -> bool) -> Option<u64> {
    let (mut lo, mut hi);
    let mut gap = 1u64;
    if crossed(seed) {
        hi = seed;
        loop {
            if hi == 0 {
                return Some(0);
            }
            let k = hi.saturating_sub(gap);
            if !crossed(k) {
                lo = k;
                break;
            }
            hi = k;
            gap = gap.saturating_mul(2);
        }
    } else {
        lo = seed;
        loop {
            if lo == k_max {
                return None;
            }
            let k = lo.saturating_add(gap).min(k_max);
            if crossed(k) {
                hi = k;
                break;
            }
            lo = k;
            gap = gap.saturating_mul(2);
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if crossed(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// The standard normal's upper-tail quantile for `p = 10^-phi`: the `z`
/// with `P(Z > z) = p` (Abramowitz & Stegun 26.2.23, absolute error
/// below `4.5e-4` for `p ≤ 1/2`, i.e. `phi ≥ log10 2`). It takes
/// `t = sqrt(ln(1/p²)) = sqrt(2·phi·ln 10)`, which stays finite where `p`
/// itself would underflow. It only seeds
/// [`PhiAccrualDetector::first_crossing`], which settles the exact tick
/// itself, so a rough value for `p > 1/2` costs calls, not correctness.
/// NaN for `phi < 0`.
fn normal_upper_quantile(phi: f64) -> f64 {
    let t = (2.0 * phi * std::f64::consts::LN_10).sqrt();
    t - (2.515_517 + t * (0.802_853 + t * 0.010_328))
        / (1.0 + t * (1.432_788 + t * (0.189_269 + t * 0.001_308)))
}

impl Default for PhiAccrualDetector {
    fn default() -> Self {
        PhiAccrualDetector::new(DEFAULT_WINDOW)
    }
}

/// Drains heartbeat topics from the broker and maintains one
/// [`PhiAccrualDetector`] per node.
///
/// The node name is taken from the topic segment following `node` (the
/// ExaMon schema of Table II); topics without one are keyed by their full
/// path. Detection is purely message-driven — the monitor has no oracle
/// knowledge of node health, so lost heartbeats (broker loss, partitions,
/// crashes) are indistinguishable until phi accrues.
///
/// Detectors live in slots: [`HeartbeatMonitor::register`] resolves a
/// node name to its slot once, and per-tick callers index by slot
/// ([`HeartbeatMonitor::slot`]) instead of walking a string-keyed map.
///
/// # Examples
///
/// ```
/// use cimone_monitor::broker::Broker;
/// use cimone_monitor::heartbeat::HeartbeatMonitor;
/// use cimone_monitor::payload::Payload;
/// use cimone_soc::units::SimTime;
///
/// let broker = Broker::new();
/// let mut hb = HeartbeatMonitor::attach(&broker, "node/+/heartbeat".parse()?, 8.0);
/// let topic = "node/mc-node-01/heartbeat".parse()?;
/// for s in (0..60).step_by(5) {
///     broker.publish(&topic, Payload::new(1.0, SimTime::from_secs(s)));
/// }
/// hb.pump();
/// assert!(hb.suspects(SimTime::from_secs(60)).is_empty());
/// assert_eq!(hb.suspects(SimTime::from_secs(120)), vec!["mc-node-01".to_string()]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct HeartbeatMonitor {
    subscription: Subscription,
    /// Node name → index into `detectors`.
    slots: BTreeMap<String, usize>,
    detectors: Vec<PhiAccrualDetector>,
    threshold: f64,
    window: usize,
}

impl HeartbeatMonitor {
    /// Subscribes `filter` on `broker` with suspicion threshold
    /// `threshold` (see [`DEFAULT_PHI_THRESHOLD`]).
    ///
    /// # Panics
    ///
    /// Panics if the threshold is not positive.
    pub fn attach(broker: &Broker, filter: TopicFilter, threshold: f64) -> Self {
        assert!(threshold > 0.0, "phi threshold must be positive");
        HeartbeatMonitor {
            subscription: broker.subscribe(filter),
            slots: BTreeMap::new(),
            detectors: Vec::new(),
            threshold,
            window: DEFAULT_WINDOW,
        }
    }

    /// The configured suspicion threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The slot of `node`'s detector, creating a fresh one if the node is
    /// new. A fresh detector reads as a node never heard from: phi 0, no
    /// arrival, and the same state as a first sighting once one arrives.
    pub fn register(&mut self, node: &str) -> usize {
        if let Some(&slot) = self.slots.get(node) {
            return slot;
        }
        let slot = self.detectors.len();
        self.detectors.push(PhiAccrualDetector::new(self.window));
        self.slots.insert(node.to_string(), slot);
        slot
    }

    /// The detector in `slot` (see [`HeartbeatMonitor::register`]).
    ///
    /// # Panics
    ///
    /// Panics if no node was registered in `slot`.
    pub fn slot(&self, slot: usize) -> &PhiAccrualDetector {
        &self.detectors[slot]
    }

    /// Mutable access to the detector in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if no node was registered in `slot`.
    pub fn slot_mut(&mut self, slot: usize) -> &mut PhiAccrualDetector {
        &mut self.detectors[slot]
    }

    /// Drains queued heartbeat messages into the per-node detectors;
    /// returns how many were ingested.
    pub fn pump(&mut self) -> usize {
        let mut n = 0;
        while let Some(msg) = self.subscription.try_recv() {
            match node_segment(msg.topic.segments()) {
                Some(node) => self.observe(node, msg.payload.timestamp),
                None => {
                    let node = msg.topic.to_string();
                    self.observe(&node, msg.payload.timestamp);
                }
            }
            n += 1;
        }
        n
    }

    /// Records a heartbeat for `node` directly (the pump calls this; tests
    /// may too).
    pub fn observe(&mut self, node: &str, at: SimTime) {
        let slot = self.register(node);
        self.detectors[slot].record(at);
    }

    /// The suspicion level for `node` at `now` (`0.0` for unknown nodes).
    pub fn phi(&self, node: &str, now: SimTime) -> f64 {
        self.detector(node).map_or(0.0, |d| d.phi(now))
    }

    /// Whether `node`'s phi exceeds the threshold at `now`.
    pub fn is_suspect(&self, node: &str, now: SimTime) -> bool {
        self.phi(node, now) >= self.threshold
    }

    /// All nodes whose phi exceeds the threshold at `now`, sorted.
    pub fn suspects(&self, now: SimTime) -> Vec<String> {
        self.slots
            .iter()
            .filter(|&(_, &slot)| self.detectors[slot].phi(now) >= self.threshold)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// All registered nodes (heard from, or given a slot or a cadence
    /// scale), sorted.
    pub fn nodes(&self) -> Vec<String> {
        self.slots.keys().cloned().collect()
    }

    /// The detector for `node`, if it is registered.
    pub fn detector(&self, node: &str) -> Option<&PhiAccrualDetector> {
        self.slots.get(node).map(|&slot| &self.detectors[slot])
    }

    /// Declares `node`'s expected heartbeat cadence scale (see
    /// [`PhiAccrualDetector::set_expected_scale`]). Registers the node if
    /// it has not been heard from yet, so the scale applies from its first
    /// arrival.
    pub fn set_expected_scale(&mut self, node: &str, scale: f64) {
        let slot = self.register(node);
        self.detectors[slot].set_expected_scale(scale);
    }

    /// Moves `node`'s silence reference to `at` without recording an
    /// arrival (see [`HeartbeatMonitor::rebaseline_slot`]).
    pub fn rebaseline(&mut self, node: &str, at: SimTime) {
        if let Some(&slot) = self.slots.get(node) {
            self.rebaseline_slot(slot, at);
        }
    }

    /// Moves the silence reference of the node in `slot` to `at` without
    /// recording an arrival (see [`PhiAccrualDetector::rebaseline`]). A
    /// no-op for nodes never heard from — they carry no suspicion to
    /// defer.
    pub fn rebaseline_slot(&mut self, slot: usize, at: SimTime) {
        let det = &mut self.detectors[slot];
        if det.last_heard().is_some() {
            det.rebaseline(at);
        }
    }

    /// When `node` last *actually* heartbeat, if ever (see
    /// [`PhiAccrualDetector::last_heard`]).
    pub fn last_heard(&self, node: &str) -> Option<SimTime> {
        self.detector(node).and_then(|d| d.last_heard())
    }
}

/// Extracts the node name from an ExaMon topic's segments: the segment
/// after `node`, or `None` when the schema marker is absent (callers fall
/// back to the whole topic string).
fn node_segment(segments: &[String]) -> Option<&str> {
    let mut iter = segments.iter();
    while let Some(seg) = iter.next() {
        if seg == "node" {
            if let Some(name) = iter.next() {
                return Some(name.as_str());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::payload::Payload;

    fn steady(det: &mut PhiAccrualDetector, beats: u64, period: u64) {
        for i in 0..beats {
            det.record(SimTime::from_secs(i * period));
        }
    }

    #[test]
    fn erfc_matches_known_values() {
        // erfc(0) = 1, erfc(1) ≈ 0.15729920705, erfc(-1) ≈ 1.8427007929.
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_207_05).abs() < 1e-7);
        assert!((erfc(-1.0) - 1.842_700_792_9).abs() < 1e-7);
        // Tail stays relatively accurate: erfc(4) ≈ 1.541726e-8.
        assert!((erfc(4.0) / 1.541_725_8e-8 - 1.0).abs() < 1e-4);
    }

    #[test]
    fn phi_is_zero_during_warmup() {
        let mut det = PhiAccrualDetector::new(16);
        det.record(SimTime::ZERO);
        det.record(SimTime::from_secs(5));
        det.record(SimTime::from_secs(10));
        // Only two intervals: below MIN_SAMPLES.
        assert_eq!(det.phi(SimTime::from_secs(1000)), 0.0);
    }

    #[test]
    fn one_missed_beat_stays_below_the_default_threshold() {
        let mut det = PhiAccrualDetector::default();
        steady(&mut det, 20, 5);
        let last = SimTime::from_secs(19 * 5);
        let one_missed = det.phi(last + cimone_soc::units::SimDuration::from_secs(10));
        assert!(one_missed < DEFAULT_PHI_THRESHOLD, "phi {one_missed}");
        let two_missed = det.phi(last + cimone_soc::units::SimDuration::from_secs(15));
        assert!(two_missed > DEFAULT_PHI_THRESHOLD, "phi {two_missed}");
    }

    #[test]
    fn phi_grows_monotonically_with_silence() {
        let mut det = PhiAccrualDetector::default();
        steady(&mut det, 10, 5);
        let last = SimTime::from_secs(9 * 5);
        let mut prev = 0.0;
        for extra in 1..30u64 {
            let phi = det.phi(last + cimone_soc::units::SimDuration::from_secs(extra));
            assert!(phi >= prev, "phi not monotone at +{extra}s");
            prev = phi;
        }
        assert!(prev <= PHI_CEILING);
    }

    #[test]
    fn first_crossing_matches_the_tick_by_tick_scan() {
        let step = cimone_soc::units::SimDuration::from_millis(500);
        for period in [3u64, 5, 8] {
            let mut det = PhiAccrualDetector::default();
            steady(&mut det, 12, period);
            let from = SimTime::from_secs(11 * period);
            let to = from + cimone_soc::units::SimDuration::from_secs(20 * period);
            // Reference: walk every grid tick like the fixed-dt loop does.
            let mut expected = None;
            let mut t = from;
            while t <= to {
                if det.phi(t) >= DEFAULT_PHI_THRESHOLD {
                    expected = Some(t);
                    break;
                }
                t += step;
            }
            assert_eq!(
                det.first_crossing(DEFAULT_PHI_THRESHOLD, from, to, step),
                expected,
                "period {period}s"
            );
        }
        // A horizon that ends before the crossing reports none.
        let mut det = PhiAccrualDetector::default();
        steady(&mut det, 12, 5);
        let from = SimTime::from_secs(55);
        let near = from + cimone_soc::units::SimDuration::from_secs(2);
        assert_eq!(
            det.first_crossing(DEFAULT_PHI_THRESHOLD, from, near, step),
            None
        );
    }

    #[test]
    fn quantile_guess_is_within_its_error_bound() {
        // Reference: bisect the tail the detector itself evaluates.
        let tail = |z: f64| 0.5 * erfc(z / std::f64::consts::SQRT_2);
        // From phi = 0.4, the first step at or above log10 2.
        for i in 4..=1000 {
            let phi = f64::from(i) * 0.1;
            let p = 10f64.powf(-phi);
            let (mut lo, mut hi) = (-40.0f64, 40.0f64);
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if tail(mid) > p {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let z = normal_upper_quantile(phi);
            assert!(
                (z - lo).abs() < 1e-3,
                "phi {phi}: guess {z}, tail inverse {lo}"
            );
        }
        assert!(normal_upper_quantile(-1.0).is_nan());
    }

    /// Phi from a from-scratch fit of the window on every call — the
    /// reference the stored fit must reproduce bit for bit.
    fn refit_phi(det: &PhiAccrualDetector, now: SimTime) -> f64 {
        let Some(last) = det.last_arrival else {
            return 0.0;
        };
        if det.intervals.len() < MIN_SAMPLES {
            return 0.0;
        }
        let mean = det.intervals.iter().sum::<f64>() / det.intervals.len() as f64;
        let var = det
            .intervals
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / det.intervals.len() as f64;
        let sigma = var.sqrt().max(0.25 * mean).max(1e-6);
        let elapsed = now.saturating_since(last).as_secs_f64() / det.expected_scale;
        let z = (elapsed - mean) / sigma;
        let p_later = 0.5 * erfc(z / std::f64::consts::SQRT_2);
        if p_later <= 0.0 {
            return PHI_CEILING;
        }
        (-p_later.log10()).clamp(0.0, PHI_CEILING)
    }

    /// Thresholds below log10 2 (phi at the mean silence), across the
    /// working range, and at or beyond [`PHI_CEILING`].
    fn threshold_strategy() -> impl Strategy<Value = f64> {
        use std::f64::consts::LOG10_2;
        (0usize..6, 0.0f64..1.0).prop_map(|(kind, u)| match kind {
            0 => u * LOG10_2,
            1 => LOG10_2,
            2 => LOG10_2 + u * 30.0,
            3 => DEFAULT_PHI_THRESHOLD,
            4 => PHI_CEILING,
            _ => PHI_CEILING + u * 60.0,
        })
    }

    /// An optional `(value, arrival index)` event.
    fn maybe_at<S: Strategy>(value: S) -> impl Strategy<Value = Option<(S::Value, usize)>> {
        (any::<bool>(), value, 0usize..200).prop_map(|(on, v, i)| on.then_some((v, i)))
    }

    /// An index into `0..=k_max + 1` from a drawn `(kind, offset,
    /// permille)`: near 0, near the far end, or anywhere between.
    fn index_in(k_max: u64, (kind, offset, permille): (u32, u64, u64)) -> u64 {
        match kind {
            0 => offset,
            1 => (k_max + 1).saturating_sub(offset),
            _ => k_max * permille / 1000,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn settle_finds_the_boundary_from_any_seed(
            k_max in (0u32..2, 0u64..100_000).prop_map(|(small, k)| if small == 0 { k % 8 } else { k }),
            // Where the predicate turns true (past `k_max`: never), and
            // where the search starts.
            boundary in (0u32..3, 0u64..4, 0u64..=1_000),
            seed in (0u32..3, 0u64..4, 0u64..=1_000),
        ) {
            let boundary = index_in(k_max, boundary);
            let seed = index_in(k_max, seed).min(k_max);
            let calls = std::cell::Cell::new(0u32);
            let found = settle(seed, k_max, |k| {
                calls.set(calls.get() + 1);
                k >= boundary
            });
            prop_assert_eq!(found, (boundary <= k_max).then_some(boundary));
            // Two calls for an exact seed, O(log d) for one d ticks off.
            let off_by = 64 - seed.abs_diff(boundary.min(k_max)).leading_zeros();
            prop_assert!(calls.get() <= 2 * off_by + 2, "{} calls", calls.get());
        }

        #[test]
        fn solved_crossings_and_stored_fits_match_the_reference(
            window in 2usize..=128,
            period_ms in 100u64..30_000,
            // Per-arrival jitter, per mille of the period: 0.5–1.5 periods.
            jitter in prop::collection::vec(500u64..=1500, 0..=200),
            scale in maybe_at(0.2f64..5.0),
            rebaseline in maybe_at(0u64..60_000),
            threshold in threshold_strategy(),
            // The grid step, per mille of the period.
            step_permille in 1u64..2_000,
            // `from` after the last arrival (or before it), per mille of
            // the period.
            from_permille in -1_000i64..4_000,
            ticks in 0u64..400,
            to_extra_permille in 0u64..1_000,
            to_before_from in 0u32..20,
        ) {
            let mut det = PhiAccrualDetector::new(window);
            let mut at = 0u64;
            for (i, j) in jitter.iter().enumerate() {
                if let Some((scale, _)) = scale.filter(|&(_, when)| when == i) {
                    det.set_expected_scale(scale);
                }
                if let Some((gap, _)) = rebaseline.filter(|&(_, when)| when == i) {
                    det.rebaseline(SimTime::from_millis(at + gap));
                }
                at += period_ms * j / 1000;
                det.record(SimTime::from_millis(at));
            }
            let step = SimDuration::from_millis((period_ms * step_permille / 1000).max(1));
            let from_offset_ms = period_ms as i64 * from_permille / 1000;
            let from = SimTime::from_millis(at.saturating_add_signed(from_offset_ms));
            let to = if to_before_from == 0 {
                SimTime::from_micros(from.as_micros().saturating_sub(1))
            } else {
                from + step * ticks + step * to_extra_permille / 1000
            };
            // Reference: walk every grid tick like the fixed-dt loop does,
            // checking each phi against the from-scratch fit.
            let mut expected = None;
            let mut t = from;
            while t <= to {
                let phi = det.phi(t);
                prop_assert_eq!(phi.to_bits(), refit_phi(&det, t).to_bits(), "phi at {}", t);
                if phi >= threshold {
                    expected = Some(t);
                    break;
                }
                t += step;
            }
            prop_assert_eq!(det.first_crossing(threshold, from, to, step), expected);
            // A horizon ending on the crossing finds it; one tick short,
            // it does not.
            if let Some(t) = expected {
                prop_assert_eq!(det.first_crossing(threshold, from, t, step), Some(t));
                if t > from {
                    let short = SimTime::from_micros(t.as_micros() - step.as_micros());
                    prop_assert_eq!(det.first_crossing(threshold, from, short, step), None);
                }
            }
        }
    }

    #[test]
    fn expected_scale_suppresses_false_suspicion_of_slow_nodes() {
        use cimone_soc::units::SimDuration;
        // Fit on a nominal 5 s cadence, then the node is capped to a third
        // of its clock: beats arrive every 15 s.
        let mut capped = PhiAccrualDetector::default();
        let mut naive = PhiAccrualDetector::default();
        steady(&mut capped, 12, 5);
        steady(&mut naive, 12, 5);
        let last = SimTime::from_secs(11 * 5);
        capped.set_expected_scale(3.0);
        // 15 s of silence: exactly one scaled beat late — not suspicious
        // when the scale is declared, far over threshold when it is not.
        let at = last + SimDuration::from_secs(15);
        assert!(capped.phi(at) < 1.0, "phi {}", capped.phi(at));
        assert!(naive.phi(at) > DEFAULT_PHI_THRESHOLD);
        // Scaled beats keep the fitted window on the nominal axis...
        capped.record(at);
        assert!((capped.mean_interval().unwrap() - 5.0).abs() < 0.1);
        // ...and a *real* crash still accrues suspicion on the scaled
        // cadence: four straight missed (scaled) beats cross the line.
        assert!(capped.phi(at + SimDuration::from_secs(60)) > DEFAULT_PHI_THRESHOLD);
    }

    #[test]
    fn monitor_applies_scales_even_before_first_arrival() {
        let broker = Broker::new();
        let mut hb = HeartbeatMonitor::attach(&broker, "#".parse().unwrap(), DEFAULT_PHI_THRESHOLD);
        hb.set_expected_scale("mc-node-05", 3.0);
        assert_eq!(
            hb.detector("mc-node-05").unwrap().expected_scale(),
            3.0,
            "scale must stick on the pre-created detector"
        );
        hb.observe("mc-node-05", SimTime::from_secs(0));
        hb.set_expected_scale("mc-node-05", 1.0);
        assert_eq!(hb.detector("mc-node-05").unwrap().expected_scale(), 1.0);
    }

    #[test]
    fn rebaseline_defers_suspicion_without_polluting_the_window() {
        use cimone_soc::units::SimDuration;
        let mut det = PhiAccrualDetector::default();
        steady(&mut det, 12, 5);
        let last = SimTime::from_secs(11 * 5);
        let mean_before = det.mean_interval().unwrap();
        // 40 s of silence would be far over threshold...
        assert!(det.phi(last + SimDuration::from_secs(40)) > DEFAULT_PHI_THRESHOLD);
        // ...but a rebaseline at +30 s restarts the silence clock there.
        det.rebaseline(last + SimDuration::from_secs(30));
        assert!(det.phi(last + SimDuration::from_secs(40)) < DEFAULT_PHI_THRESHOLD);
        // The true-arrival clock is not fooled.
        assert_eq!(det.last_heard(), Some(last));
        assert_eq!(det.last_arrival(), Some(last + SimDuration::from_secs(30)));
        // The first real arrival after the rebaseline updates the clocks
        // but drops the outage-spanning interval from the fitted window.
        let resumed = last + SimDuration::from_secs(60);
        det.record(resumed);
        assert_eq!(det.last_heard(), Some(resumed));
        assert!((det.mean_interval().unwrap() - mean_before).abs() < 1e-12);
        // The next interval after that is a real one and is recorded.
        det.record(resumed + SimDuration::from_secs(5));
        assert!((det.mean_interval().unwrap() - mean_before).abs() < 0.1);
        // Backwards rebaselines are ignored.
        let reference = det.last_arrival();
        det.rebaseline(SimTime::from_secs(1));
        assert_eq!(det.last_arrival(), reference);
    }

    #[test]
    fn monitor_rebaseline_only_touches_known_nodes() {
        let broker = Broker::new();
        let mut hb = HeartbeatMonitor::attach(&broker, "#".parse().unwrap(), DEFAULT_PHI_THRESHOLD);
        hb.rebaseline("ghost", SimTime::from_secs(10));
        assert!(hb.detector("ghost").is_none(), "no detector conjured");
        hb.observe("mc-node-01", SimTime::from_secs(0));
        hb.rebaseline("mc-node-01", SimTime::from_secs(10));
        assert_eq!(
            hb.detector("mc-node-01").unwrap().last_arrival(),
            Some(SimTime::from_secs(10))
        );
        assert_eq!(hb.last_heard("mc-node-01"), Some(SimTime::ZERO));
    }

    #[test]
    fn duplicate_and_stale_arrivals_are_ignored() {
        let mut det = PhiAccrualDetector::new(8);
        steady(&mut det, 6, 5);
        let before = det.samples();
        det.record(SimTime::from_secs(10)); // stale
        det.record(SimTime::from_secs(25)); // duplicate of the last
        assert_eq!(det.samples(), before);
    }

    #[test]
    fn monitor_keys_detectors_by_node_segment() {
        let broker = Broker::new();
        let mut hb = HeartbeatMonitor::attach(
            &broker,
            "org/+/node/+/heartbeat".parse().unwrap(),
            DEFAULT_PHI_THRESHOLD,
        );
        let t1 = "org/x/node/mc-node-03/heartbeat".parse().unwrap();
        for s in (0..40).step_by(4) {
            broker.publish(&t1, Payload::new(1.0, SimTime::from_secs(s)));
        }
        assert_eq!(hb.pump(), 10);
        assert_eq!(hb.nodes(), vec!["mc-node-03".to_string()]);
        assert!(hb.phi("mc-node-03", SimTime::from_secs(40)) < 1.0);
        assert_eq!(hb.phi("mc-node-99", SimTime::from_secs(40)), 0.0);
    }

    #[test]
    fn starved_stream_becomes_suspect_and_recovers() {
        let broker = Broker::new();
        let mut hb = HeartbeatMonitor::attach(&broker, "#".parse().unwrap(), DEFAULT_PHI_THRESHOLD);
        let topic = "node/mc-node-01/hb".parse().unwrap();
        for s in (0..50).step_by(5) {
            broker.publish(&topic, Payload::new(1.0, SimTime::from_secs(s)));
        }
        hb.pump();
        assert!(!hb.is_suspect("mc-node-01", SimTime::from_secs(50)));
        assert!(hb.is_suspect("mc-node-01", SimTime::from_secs(80)));
        // The stream resumes: suspicion clears on the next arrival.
        broker.publish(&topic, Payload::new(1.0, SimTime::from_secs(85)));
        hb.pump();
        assert!(!hb.is_suspect("mc-node-01", SimTime::from_secs(86)));
    }

    #[test]
    fn node_segment_handles_schema_and_fallback() {
        let segs = |s: &str| -> Vec<String> { s.split('/').map(str::to_string).collect() };
        assert_eq!(
            node_segment(&segs("a/b/node/mc-node-02/c")),
            Some("mc-node-02")
        );
        assert_eq!(node_segment(&segs("no/marker/here")), None);
        assert_eq!(node_segment(&segs("ends/with/node")), None);
    }
}
