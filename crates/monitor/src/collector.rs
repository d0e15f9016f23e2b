//! The broker→store collector (ExaMon's ingestion path).

use crate::broker::{Broker, Subscription};
use crate::payload::Payload;
use crate::scrub::{admits, ScrubPolicy};
use crate::topic::{Topic, TopicFilter};
use crate::tsdb::{Point, TimeSeriesStore};

/// Subscribes to a broker and drains matching messages into a store.
///
/// The collector receives its deliveries as per-topic point runs,
/// scrubbed as they arrive, and [`Collector::pump`] lands them
/// deterministically from the simulation loop.
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
    /// Forced inline: left to the compiler, it can stay an out-of-line
    /// call in the broker's batch loop, which costs several nanoseconds
    /// per staged sample.
    #[inline(always)]
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
        Collector {
            subscription: broker.subscribe_columnar(filter),
            quarantine: Vec::new(),
        }
    }

    /// Installs a plausibility scrub: samples `policy` rejects are held in
    /// quarantine (see [`Collector::take_quarantined`]) instead of being
    /// written to the store.
    ///
    /// # Panics
    ///
    /// Panics if samples are staged and not yet pumped.
    #[must_use]
    pub fn with_scrub(self, policy: ScrubPolicy) -> Self {
        self.subscription.runs().set_scrub(policy);
        self
    }

    /// Drains the samples the scrub refused since the last call, in
    /// arrival order.
    pub fn take_quarantined(&mut self) -> Vec<(Topic, Payload)> {
        std::mem::take(&mut self.quarantine)
    }

    /// The underlying subscription.
    pub fn subscription(&self) -> &Subscription {
        &self.subscription
    }

    /// Drains everything delivered into `store`; returns the samples
    /// consumed, quarantined ones included.
    ///
    /// The broker has already staged each sample in its topic's run and
    /// scrubbed it, so the pump bulk-appends each run to its column with
    /// one [`TimeSeriesStore::extend_series`] call. Per-topic arrival
    /// order is preserved, so the stored columns are identical to
    /// per-message inserts, and the quarantine is in arrival order.
    /// Steady state (pre-registered topics, warm capacities) the lane
    /// performs zero heap allocations per sample.
    pub fn pump(&mut self, store: &mut TimeSeriesStore) -> usize {
        self.subscription.runs().land(store, &mut self.quarantine)
    }
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
    fn scrub_quarantines_implausible_samples() {
        let power: Topic =
            "org/unibo/cluster/cimone/node/mc-node-00/plugin/pwr_pub/chnl/data/total_power"
                .parse()
                .unwrap();
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

    #[test]
    #[should_panic(expected = "consume it with Collector::pump")]
    fn columnar_subscriptions_refuse_message_receives() {
        let broker = Broker::new();
        let collector = Collector::attach(&broker, "#".parse().unwrap());
        broker.publish(&"x".parse().unwrap(), Payload::new(1.0, SimTime::ZERO));
        collector.subscription().try_recv();
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
}
