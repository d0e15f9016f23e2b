//! The broker→store collector (ExaMon's ingestion path).

use std::sync::Arc;

use cimone_soc::units::{SimDuration, SimTime};
use parking_lot::Mutex;

use crate::broker::{Broker, PublishedMessage, Subscription};
use crate::payload::Payload;
use crate::scrub::{admits, ScrubPolicy};
use crate::topic::{Topic, TopicFilter};
use crate::tsdb::{Point, TimeSeriesStore};

/// A detected hole in a series: consecutive samples arrived further apart
/// than the collector's expected interval tolerates.
#[derive(Debug, Clone, PartialEq)]
pub struct Gap {
    /// The affected series.
    pub series: String,
    /// Timestamp of the last sample before the hole.
    pub from: SimTime,
    /// Timestamp of the first sample after the hole.
    pub to: SimTime,
    /// Samples that should have arrived in between.
    pub missing: usize,
}

/// Subscribes to a broker and drains matching messages into a store.
///
/// `pump` is deterministic and used by the simulation loop; `spawn` runs a
/// real ingestion thread for the threaded integration tests.
///
/// A collector that only pumps receives its deliveries as per-topic
/// point runs, scrubbed as they arrive; one configured for gap detection,
/// or spawned, receives whole messages in arrival order.
///
/// # Examples
///
/// ```
/// use cimone_monitor::broker::Broker;
/// use cimone_monitor::collector::Collector;
/// use cimone_monitor::payload::Payload;
/// use cimone_monitor::tsdb::TimeSeriesStore;
/// use cimone_soc::units::SimTime;
///
/// let broker = Broker::new();
/// let mut collector = Collector::attach(&broker, "#".parse()?);
/// broker.publish(&"a/b".parse()?, Payload::new(1.0, SimTime::ZERO));
/// let mut db = TimeSeriesStore::new();
/// assert_eq!(collector.pump(&mut db), 1);
/// assert_eq!(db.point_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Collector {
    subscription: Subscription,
    /// Sampling interval the sources are expected to hold; enables gap
    /// detection when set.
    expected_interval: Option<SimDuration>,
    /// Whether detected gaps are filled with sample-and-hold points.
    backfill: bool,
    /// Last ingested `(timestamp, value)` per series, indexed densely by
    /// interned topic id — no string rendering and no hashing on the
    /// per-sample path.
    last_seen: Vec<Option<(SimTime, f64)>>,
    gaps: Vec<Gap>,
    backfilled: usize,
    /// Plausibility scrubbing: when set, implausible samples are diverted
    /// to [`Collector::take_quarantined`] instead of ingested. The runs
    /// layout holds its own copy and applies it at delivery.
    scrub: Option<ScrubPolicy>,
    /// Samples the scrub refused, in arrival order, awaiting the engine's
    /// drain.
    quarantine: Vec<(Topic, Payload)>,
}

/// A columnar subscription's pending samples: one point run per topic,
/// staged by the broker at delivery and landed by [`Collector::pump`].
///
/// The scrub runs as each sample is staged, so the quarantine keeps
/// arrival order across topics while the runs keep it per topic — all
/// the store and the engine's `SdcSuspected` log can observe. Each
/// topic's scrub range is classified once, on its first delivery, so the
/// per-sample check is one table load and two compares.
#[derive(Debug, Default)]
pub(crate) struct Runs {
    /// Indexed densely by interned topic id; capacities are recycled
    /// across pumps.
    runs: Vec<Run>,
    /// Points staged across all runs.
    staged: usize,
    scrub: Option<ScrubPolicy>,
    /// Samples the scrub refused since the last pump, in arrival order.
    quarantine: Vec<(Topic, Payload)>,
}

/// One topic's staged points and its cached scrub range.
#[derive(Debug, Default)]
struct Run {
    /// Set on the topic's first delivery.
    topic: Option<Topic>,
    /// [`ScrubPolicy::range_for`] of the topic; `None` admits every value.
    range: Option<(f64, f64)>,
    points: Vec<Point>,
}

impl Runs {
    /// Stages one delivery, or quarantines it if the scrub refuses it.
    #[inline]
    pub(crate) fn push(&mut self, topic: Topic, payload: Payload) {
        let idx = topic.id().index();
        if self.runs.get(idx).is_none_or(|run| run.topic.is_none()) {
            self.open(topic);
        }
        let run = &mut self.runs[idx];
        if run.range.is_some_and(|range| !admits(range, payload.value)) {
            self.quarantine.push((topic, payload));
            return;
        }
        run.points.push((payload.timestamp, payload.value));
        self.staged += 1;
    }

    /// First delivery of `topic`: opens its run and classifies its scrub
    /// range. Kept out of line so the per-sample `push` inlines into the
    /// broker's delivery loops.
    #[cold]
    #[inline(never)]
    fn open(&mut self, topic: Topic) {
        let idx = topic.id().index();
        if self.runs.len() <= idx {
            self.runs.resize_with(idx + 1, Run::default);
        }
        let run = &mut self.runs[idx];
        run.topic = Some(topic);
        run.range = self.scrub.and_then(|policy| policy.range_for(&topic));
    }

    /// Samples held: staged plus quarantined.
    pub(crate) fn len(&self) -> usize {
        self.staged + self.quarantine.len()
    }

    /// Installs `policy` and reclassifies every topic seen so far.
    fn set_scrub(&mut self, policy: ScrubPolicy) {
        assert_eq!(
            self.len(),
            0,
            "install the scrub before the first delivery: staged samples were not scrubbed"
        );
        self.scrub = Some(policy);
        for run in &mut self.runs {
            run.range = run.topic.and_then(|topic| policy.range_for(&topic));
        }
    }

    /// Lands every run in `store` with one `extend_series` call each and
    /// moves the quarantine to `quarantine`; returns the samples consumed.
    fn land(
        &mut self,
        store: &mut TimeSeriesStore,
        quarantine: &mut Vec<(Topic, Payload)>,
    ) -> usize {
        let consumed = self.len();
        for run in &mut self.runs {
            if self.staged == 0 {
                break;
            }
            if let Some(topic) = run.topic.filter(|_| !run.points.is_empty()) {
                store.extend_series(&topic, &run.points);
                self.staged -= run.points.len();
                run.points.clear();
            }
        }
        quarantine.append(&mut self.quarantine);
        consumed
    }
}

impl Collector {
    /// Subscribes `filter` on `broker`.
    pub fn attach(broker: &Broker, filter: TopicFilter) -> Self {
        Collector::over(broker.subscribe_columnar(filter, None))
    }

    /// Like [`Collector::attach`], but with a bounded subscriber queue:
    /// bursts beyond `capacity` are dropped (and accounted) at the broker
    /// instead of growing the queue without limit.
    pub fn attach_bounded(broker: &Broker, filter: TopicFilter, capacity: usize) -> Self {
        Collector::over(broker.subscribe_columnar(filter, Some(capacity)))
    }

    fn over(subscription: Subscription) -> Self {
        Collector {
            subscription,
            expected_interval: None,
            backfill: false,
            last_seen: Vec::new(),
            gaps: Vec::new(),
            backfilled: 0,
            scrub: None,
            quarantine: Vec::new(),
        }
    }

    /// Enables gap detection: consecutive samples of one series arriving
    /// more than 1.5 × `interval` apart are recorded as a [`Gap`]. The
    /// collector then receives whole messages in arrival order.
    ///
    /// # Panics
    ///
    /// Panics if the interval is zero, or if samples are staged and not
    /// yet pumped.
    #[must_use]
    pub fn with_expected_interval(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "expected interval must be non-zero");
        self.subscription.use_messages();
        self.expected_interval = Some(interval);
        self
    }

    /// Additionally fills detected gaps with sample-and-hold points (the
    /// last observed value repeated at the expected cadence), so range
    /// aggregates stay dense across sensor dropouts.
    ///
    /// # Panics
    ///
    /// Panics if gap detection was not enabled first.
    #[must_use]
    pub fn with_backfill(mut self) -> Self {
        assert!(
            self.expected_interval.is_some(),
            "backfill requires with_expected_interval"
        );
        self.backfill = true;
        self
    }

    /// Installs a plausibility scrub: samples `policy` rejects are held in
    /// quarantine (see [`Collector::take_quarantined`]) instead of being
    /// written to the store.
    ///
    /// # Panics
    ///
    /// Panics if samples are staged and not yet pumped.
    #[must_use]
    pub fn with_scrub(mut self, policy: ScrubPolicy) -> Self {
        self.scrub = Some(policy);
        self.subscription.with_runs(|runs| runs.set_scrub(policy));
        self
    }

    /// Drains the samples the scrub refused since the last call, in
    /// arrival order.
    pub fn take_quarantined(&mut self) -> Vec<(Topic, Payload)> {
        std::mem::take(&mut self.quarantine)
    }

    /// Gaps detected so far, in detection order.
    pub fn gaps(&self) -> &[Gap] {
        &self.gaps
    }

    /// Points synthesised by backfill so far.
    pub fn backfilled(&self) -> usize {
        self.backfilled
    }

    /// The underlying subscription (drop/overflow accounting lives there).
    pub fn subscription(&self) -> &Subscription {
        &self.subscription
    }

    /// Drains everything delivered into `store`; returns the samples
    /// consumed, quarantined ones included (backfilled points are not
    /// counted — see [`Collector::backfilled`]).
    ///
    /// Without gap detection this is the columnar lane: the broker has
    /// already staged each sample in its topic's run and scrubbed it, so
    /// the pump takes the subscription lock once and bulk-appends each
    /// run to its column with one [`TimeSeriesStore::extend_series`] call.
    /// Per-topic arrival order is preserved, so the stored columns are
    /// identical to per-message inserts, and the quarantine is in arrival
    /// order. Steady state (pre-registered topics, warm capacities) the
    /// lane performs zero heap allocations per sample.
    ///
    /// With an expected interval set, samples go through per-message gap
    /// detection/backfill instead, in arrival order.
    pub fn pump(&mut self, store: &mut TimeSeriesStore) -> usize {
        let Collector {
            subscription,
            expected_interval,
            backfill,
            last_seen,
            gaps,
            backfilled,
            scrub,
            quarantine,
        } = self;
        if let Some(consumed) = subscription.with_runs(|runs| runs.land(store, quarantine)) {
            return consumed;
        }
        subscription.drain_each(|msg| {
            if let Some(policy) = scrub {
                if !policy.is_plausible(&msg.topic, &msg.payload) {
                    // A quarantined sample leaves no trace in the gap
                    // bookkeeping either: the series genuinely has a hole
                    // where the corrupt reading was.
                    quarantine.push((msg.topic, msg.payload));
                    return;
                }
            }
            observe_meta(
                *expected_interval,
                *backfill,
                last_seen,
                gaps,
                backfilled,
                store,
                &msg,
            );
            store.insert_message(&msg);
        })
    }

    /// Ingests one message: gap bookkeeping plus the insert (the threaded
    /// [`Collector::spawn`] path, which has no batch to amortise).
    fn observe(&mut self, store: &mut TimeSeriesStore, msg: &PublishedMessage) {
        if let Some(policy) = &self.scrub {
            if !policy.is_plausible(&msg.topic, &msg.payload) {
                self.quarantine.push((msg.topic, msg.payload));
                return;
            }
        }
        observe_meta(
            self.expected_interval,
            self.backfill,
            &mut self.last_seen,
            &mut self.gaps,
            &mut self.backfilled,
            store,
            msg,
        );
        store.insert_message(msg);
    }

    /// Spawns an ingestion thread feeding a shared store. The thread exits
    /// when the broker drops the subscription's sender side (i.e. when the
    /// broker itself is dropped) — or, in practice, when the process ends.
    /// The thread receives whole messages, one at a time.
    ///
    /// # Panics
    ///
    /// Panics if samples are staged and not yet pumped.
    pub fn spawn(mut self, store: Arc<Mutex<TimeSeriesStore>>) -> std::thread::JoinHandle<usize> {
        self.subscription.use_messages();
        std::thread::spawn(move || {
            let mut ingested = 0;
            while let Some(msg) = self.subscription.recv() {
                self.observe(&mut store.lock(), &msg);
                ingested += 1;
            }
            ingested
        })
    }
}

/// Gap bookkeeping for one message: detect (and optionally backfill) a
/// hole, remember the sample. Does not insert the message itself. A free
/// function over the collector's split-out fields so [`Collector::pump`]
/// can call it from inside the queue-drain closure.
#[allow(clippy::too_many_arguments)]
fn observe_meta(
    expected_interval: Option<SimDuration>,
    backfill: bool,
    last_seen: &mut Vec<Option<(SimTime, f64)>>,
    gaps: &mut Vec<Gap>,
    backfilled: &mut usize,
    store: &mut TimeSeriesStore,
    msg: &PublishedMessage,
) {
    let Some(interval) = expected_interval else {
        return;
    };
    let index = msg.topic.id().index();
    if last_seen.len() <= index {
        last_seen.resize(index + 1, None);
    }
    if let Some((last_t, last_v)) = last_seen[index] {
        let delta = msg.payload.timestamp.saturating_since(last_t);
        // Tolerate jitter up to half an interval.
        if delta.as_micros() * 2 > interval.as_micros() * 3 {
            let missing = (delta.as_micros() / interval.as_micros()).saturating_sub(1) as usize;
            gaps.push(Gap {
                series: msg.topic.to_string(),
                from: last_t,
                to: msg.payload.timestamp,
                missing,
            });
            if backfill {
                for k in 1..=missing as u64 {
                    let at = last_t + interval * k;
                    store.insert(&msg.topic, Payload::new(last_v, at));
                    *backfilled += 1;
                }
            }
        }
    }
    last_seen[index] = Some((msg.payload.timestamp, msg.payload.value));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use cimone_soc::units::SimTime;

    #[test]
    fn pump_ingests_only_matching_topics() {
        let broker = Broker::new();
        let mut collector = Collector::attach(&broker, "temp/#".parse().unwrap());
        broker.publish(&"temp/a".parse().unwrap(), Payload::new(1.0, SimTime::ZERO));
        broker.publish(
            &"power/a".parse().unwrap(),
            Payload::new(2.0, SimTime::ZERO),
        );
        let mut db = TimeSeriesStore::new();
        assert_eq!(collector.pump(&mut db), 1);
        assert_eq!(db.series_count(), 1);
        assert!(db.latest("temp/a").is_some());
    }

    #[test]
    fn pump_is_incremental() {
        let broker = Broker::new();
        let mut collector = Collector::attach(&broker, "#".parse().unwrap());
        let mut db = TimeSeriesStore::new();
        broker.publish(&"x".parse().unwrap(), Payload::new(1.0, SimTime::ZERO));
        assert_eq!(collector.pump(&mut db), 1);
        assert_eq!(collector.pump(&mut db), 0);
        broker.publish(
            &"x".parse().unwrap(),
            Payload::new(2.0, SimTime::from_secs(1)),
        );
        assert_eq!(collector.pump(&mut db), 1);
        assert_eq!(db.point_count(), 2);
    }

    #[test]
    fn gap_detection_flags_sensor_dropouts() {
        let broker = Broker::new();
        let mut collector = Collector::attach(&broker, "#".parse().unwrap())
            .with_expected_interval(SimDuration::from_secs(5));
        let topic = "node/temp".parse().unwrap();
        // Samples at 0, 5, then nothing until 25: a 3-sample hole.
        for t in [0u64, 5, 25] {
            broker.publish(&topic, Payload::new(t as f64, SimTime::from_secs(t)));
        }
        let mut db = TimeSeriesStore::new();
        assert_eq!(collector.pump(&mut db), 3);
        assert_eq!(collector.gaps().len(), 1);
        let gap = &collector.gaps()[0];
        assert_eq!(gap.series, "node/temp");
        assert_eq!(gap.from, SimTime::from_secs(5));
        assert_eq!(gap.to, SimTime::from_secs(25));
        assert_eq!(gap.missing, 3);
        // No backfill requested: the store holds only real samples.
        assert_eq!(db.point_count(), 3);
    }

    #[test]
    fn jitter_within_tolerance_is_not_a_gap() {
        let broker = Broker::new();
        let mut collector = Collector::attach(&broker, "#".parse().unwrap())
            .with_expected_interval(SimDuration::from_secs(10));
        let topic = "node/temp".parse().unwrap();
        // 14 s spacing on a 10 s cadence: inside the 1.5x tolerance.
        for t in [0u64, 14, 28] {
            broker.publish(&topic, Payload::new(1.0, SimTime::from_secs(t)));
        }
        let mut db = TimeSeriesStore::new();
        collector.pump(&mut db);
        assert!(collector.gaps().is_empty());
    }

    #[test]
    fn backfill_densifies_the_series_with_held_values() {
        let broker = Broker::new();
        let mut collector = Collector::attach(&broker, "#".parse().unwrap())
            .with_expected_interval(SimDuration::from_secs(5))
            .with_backfill();
        let topic: crate::topic::Topic = "node/power".parse().unwrap();
        broker.publish(&topic, Payload::new(30.0, SimTime::ZERO));
        broker.publish(&topic, Payload::new(40.0, SimTime::from_secs(20)));
        let mut db = TimeSeriesStore::new();
        assert_eq!(collector.pump(&mut db), 2);
        assert_eq!(collector.backfilled(), 3);
        // 2 real + 3 held points at 5, 10, 15 carrying the last value.
        assert_eq!(db.point_count(), 5);
        let points = db.query("node/power", SimTime::ZERO, SimTime::from_secs(100));
        assert_eq!(points[1], (SimTime::from_secs(5), 30.0));
        assert_eq!(points[3], (SimTime::from_secs(15), 30.0));
        assert_eq!(points[4], (SimTime::from_secs(20), 40.0));
    }

    #[test]
    fn scrub_quarantines_implausible_samples_on_both_paths() {
        let power: Topic =
            "org/unibo/cluster/cimone/node/mc-node-00/plugin/pwr_pub/chnl/data/total_power"
                .parse()
                .unwrap();
        // Columnar fast path (no expected interval).
        let broker = Broker::new();
        let mut collector = Collector::attach(&broker, "#".parse().unwrap())
            .with_scrub(crate::scrub::ScrubPolicy::monte_cimone());
        broker.publish(&power, Payload::new(5.5, SimTime::ZERO));
        broker.publish(&power, Payload::new(-5.5, SimTime::from_secs(1)));
        broker.publish(&power, Payload::new(6.0, SimTime::from_secs(2)));
        let mut db = TimeSeriesStore::new();
        collector.pump(&mut db);
        assert_eq!(db.point_count(), 2, "the corrupt sample never landed");
        let held = collector.take_quarantined();
        assert_eq!(held.len(), 1);
        assert_eq!(held[0].0, power);
        assert_eq!(held[0].1.value, -5.5);
        assert!(collector.take_quarantined().is_empty(), "drain is one-shot");

        // Per-message path (gap detection on): the quarantined sample
        // leaves a genuine hole, not a phantom gap endpoint.
        let broker = Broker::new();
        let mut collector = Collector::attach(&broker, "#".parse().unwrap())
            .with_expected_interval(SimDuration::from_secs(1))
            .with_scrub(crate::scrub::ScrubPolicy::monte_cimone());
        for (t, v) in [(0u64, 5.0), (1, f64::NAN), (2, 5.2)] {
            broker.publish(&power, Payload::new(v, SimTime::from_secs(t)));
        }
        let mut db = TimeSeriesStore::new();
        collector.pump(&mut db);
        assert_eq!(db.point_count(), 2);
        assert_eq!(collector.take_quarantined().len(), 1);
        assert_eq!(collector.gaps().len(), 1, "the hole is a real gap");
    }

    fn power_topic(node: usize) -> Topic {
        format!(
            "org/unibo/cluster/cimone/node/mc-node-{node:02}/plugin/pwr_pub/chnl/data/total_power"
        )
        .parse()
        .unwrap()
    }

    /// Two series corrupted at once, delivered over several publishes —
    /// per message and batched — and landed by one pump: the quarantine
    /// must hold the refused samples in the order they arrived, not
    /// grouped by series.
    #[test]
    fn quarantine_keeps_arrival_order_across_interleaved_series() {
        let (a, b) = (power_topic(0), power_topic(1));
        let broker = Broker::new();
        let mut collector = Collector::attach(&broker, "#".parse().unwrap())
            .with_scrub(crate::scrub::ScrubPolicy::monte_cimone());
        let mut refused = Vec::new();
        for t in 0..6u64 {
            let at = SimTime::from_secs(t);
            let tick = [
                (a, Payload::new(-(t as f64) - 1.0, at)),
                (b, Payload::new(5.0, at)),
                (b, Payload::new(-(t as f64) - 100.0, at)),
                (a, Payload::new(6.0, at)),
            ];
            refused.extend([tick[0], tick[2]].map(|(topic, p)| (topic, p.value)));
            if t % 2 == 0 {
                for (topic, payload) in tick {
                    broker.publish(&topic, payload);
                }
            } else {
                broker.publish_batch_serial(&mut tick.to_vec());
            }
        }
        assert_eq!(collector.subscription().queued(), 24);
        let mut db = TimeSeriesStore::new();
        assert_eq!(collector.pump(&mut db), 24, "staged and quarantined");
        assert_eq!(collector.subscription().queued(), 0);
        assert_eq!(db.point_count(), 12, "only plausible samples land");
        let held: Vec<(Topic, f64)> = collector
            .take_quarantined()
            .into_iter()
            .map(|(topic, p)| (topic, p.value))
            .collect();
        assert_eq!(held, refused);
    }

    /// A bounded collector counts quarantined samples against its
    /// capacity, exactly as the message queue they replace did.
    #[test]
    fn bounded_capacity_counts_quarantined_samples() {
        let power = power_topic(0);
        let broker = Broker::new();
        let mut collector = Collector::attach_bounded(&broker, "#".parse().unwrap(), 2)
            .with_scrub(crate::scrub::ScrubPolicy::monte_cimone());
        for v in [f64::NAN, 5.0, 6.0] {
            broker.publish(&power, Payload::new(v, SimTime::ZERO));
        }
        assert_eq!(collector.subscription().queued(), 2);
        assert_eq!(collector.subscription().dropped(), 1);
        let mut db = TimeSeriesStore::new();
        assert_eq!(collector.pump(&mut db), 2);
        assert_eq!(db.point_count(), 1);
        assert_eq!(collector.take_quarantined().len(), 1);
    }

    #[test]
    #[should_panic(expected = "consume it with Collector::pump")]
    fn columnar_subscriptions_refuse_message_receives() {
        let broker = Broker::new();
        let collector = Collector::attach(&broker, "#".parse().unwrap());
        broker.publish(&"x".parse().unwrap(), Payload::new(1.0, SimTime::ZERO));
        collector.subscription().try_recv();
    }

    #[test]
    #[should_panic(expected = "configure the collector before the first delivery")]
    fn gap_detection_cannot_be_enabled_over_staged_runs() {
        let broker = Broker::new();
        let collector = Collector::attach(&broker, "#".parse().unwrap());
        broker.publish(&"x".parse().unwrap(), Payload::new(1.0, SimTime::ZERO));
        let _ = collector.with_expected_interval(SimDuration::from_secs(1));
    }

    /// A dropped collector's staged samples go with it; the broker then
    /// finds the subscriber dead, counts the delivery as dropped and
    /// prunes it.
    #[test]
    fn dropping_a_collector_releases_its_runs() {
        let broker = Broker::new();
        let collector = Collector::attach(&broker, "#".parse().unwrap());
        broker.publish(&"x".parse().unwrap(), Payload::new(1.0, SimTime::ZERO));
        drop(collector);
        broker.publish(&"x".parse().unwrap(), Payload::new(2.0, SimTime::ZERO));
        let stats = broker.stats();
        assert_eq!((stats.delivered, stats.dropped), (1, 1));
        assert_eq!(broker.subscription_count(), 0);
    }

    /// The scrub may be installed before or after gap detection.
    #[test]
    fn scrub_then_gap_detection_scrubs_per_message() {
        let power = power_topic(0);
        let broker = Broker::new();
        let mut collector = Collector::attach(&broker, "#".parse().unwrap())
            .with_scrub(crate::scrub::ScrubPolicy::monte_cimone())
            .with_expected_interval(SimDuration::from_secs(1));
        for (t, v) in [(0u64, 5.0), (1, -1.0), (2, 5.2)] {
            broker.publish(&power, Payload::new(v, SimTime::from_secs(t)));
        }
        let mut db = TimeSeriesStore::new();
        assert_eq!(collector.pump(&mut db), 3);
        assert_eq!(db.point_count(), 2);
        assert_eq!(collector.take_quarantined().len(), 1);
        assert_eq!(collector.gaps().len(), 1);
    }

    #[test]
    fn bounded_collector_reports_overflow_via_subscription() {
        let broker = Broker::new();
        let mut collector = Collector::attach_bounded(&broker, "#".parse().unwrap(), 2);
        for i in 0..5 {
            broker.publish(&"x".parse().unwrap(), Payload::new(i as f64, SimTime::ZERO));
        }
        let mut db = TimeSeriesStore::new();
        assert_eq!(collector.pump(&mut db), 2);
        assert_eq!(collector.subscription().dropped(), 3);
    }

    #[test]
    fn threaded_collector_ingests_until_disconnect() {
        let broker = Broker::new();
        let collector = Collector::attach(&broker, "#".parse().unwrap());
        let store = Arc::new(Mutex::new(TimeSeriesStore::new()));
        let handle = collector.spawn(store.clone());
        for i in 0..100u64 {
            broker.publish(
                &"series".parse().unwrap(),
                Payload::new(i as f64, SimTime::from_secs(i)),
            );
        }
        drop(broker); // closes the subscription channel
        let ingested = handle.join().unwrap();
        assert_eq!(ingested, 100);
        assert_eq!(store.lock().point_count(), 100);
    }
}
