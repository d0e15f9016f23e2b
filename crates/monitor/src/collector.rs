//! The broker→store collector (ExaMon's ingestion path).

use crate::broker::{Broker, Subscription};
use crate::payload::Payload;
use crate::scrub::{admits, ScrubPolicy};
use crate::topic::{Topic, TopicFilter};
use crate::tsdb::TimeSeriesStore;

/// Subscribes to a broker and writes matching samples into a store.
///
/// While a store is lent to it ([`Collector::lend`] to
/// [`Collector::reclaim`]), every sample lands as it is delivered.
/// Deliveries made with no store lent wait, in arrival order, for
/// [`Collector::pump`], which lands them through the same scrub and
/// insert.
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
/// collector.lend(db);
/// broker.publish(&"a/b".parse()?, Payload::new(2.0, SimTime::from_secs(1)));
/// assert_eq!(collector.reclaim().expect("lent").point_count(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Collector {
    subscription: Subscription,
}

/// A collector's side of its subscription. Every sample reaches a store
/// through [`Gate::land`], at delivery or at the pump, so each column
/// and the quarantine keep arrival order.
#[derive(Debug, Default)]
pub(crate) struct Lane {
    gate: Gate,
    store: Option<TimeSeriesStore>,
    /// Deliveries made while no store was lent, in arrival order.
    pub(crate) waiting: Vec<(Topic, Payload)>,
}

/// The scrub in front of the store. Each topic is classified on its
/// first landing, into one byte of a table small enough to stay cached,
/// so the per-sample check is two small-table loads and two compares.
#[derive(Debug, Default)]
struct Gate {
    policy: Option<ScrubPolicy>,
    /// Indexed densely by interned topic id: 0 until the topic's first
    /// landing, then one more than the index of its range in `ranges`.
    classes: Vec<u8>,
    /// The distinct [`ScrubPolicy::range_for`] answers met so far; `None`
    /// admits every value.
    ranges: Vec<Option<(f64, f64)>>,
    /// Samples the scrub refused, in arrival order.
    quarantine: Vec<(Topic, Payload)>,
}

impl Gate {
    /// Inserts one sample, or quarantines it if the scrub refuses it.
    #[inline]
    fn land(&mut self, store: &mut TimeSeriesStore, topic: Topic, payload: Payload) {
        let class = match self.classes.get(topic.id().index()) {
            Some(&0) | None => self.classify(&topic),
            Some(&class) => class,
        };
        match self.ranges[usize::from(class - 1)] {
            Some(range) if !admits(range, payload.value) => self.quarantine.push((topic, payload)),
            _ => store.insert(&topic, payload),
        }
    }

    /// First landing of `topic`: caches its class, out of line so `land`
    /// stays small.
    #[cold]
    #[inline(never)]
    fn classify(&mut self, topic: &Topic) -> u8 {
        let idx = topic.id().index();
        if self.classes.len() <= idx {
            self.classes.resize(idx + 1, 0);
        }
        let range = self.policy.and_then(|policy| policy.range_for(topic));
        let bits = |r: Option<(f64, f64)>| r.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
        let k = match self.ranges.iter().position(|&r| bits(r) == bits(range)) {
            Some(k) => k,
            None => {
                self.ranges.push(range);
                self.ranges.len() - 1
            }
        };
        self.classes[idx] = u8::try_from(k + 1).expect("a policy has few ranges");
        self.classes[idx]
    }
}

impl Lane {
    /// Takes one delivery: lands it in the lent store, or queues it for
    /// the next pump.
    #[inline]
    pub(crate) fn push(&mut self, topic: Topic, payload: Payload) {
        match &mut self.store {
            Some(store) => self.gate.land(store, topic, payload),
            None => self.waiting.push((topic, payload)),
        }
    }
}

impl Collector {
    /// Subscribes `filter` on `broker`.
    pub fn attach(broker: &Broker, filter: TopicFilter) -> Self {
        Collector {
            subscription: broker.subscribe_collector(filter),
        }
    }

    /// Installs a plausibility scrub: from the next landing on, samples
    /// `policy` rejects are held in quarantine (see
    /// [`Collector::take_quarantined`]) instead of being written to the
    /// store.
    #[must_use]
    pub fn with_scrub(self, policy: ScrubPolicy) -> Self {
        let mut lane = self.subscription.lane();
        lane.gate.policy = Some(policy);
        lane.gate.classes.clear();
        drop(lane);
        self
    }

    /// Lends `store` to the collector: the deliveries waiting for a pump
    /// land in it now, and every later one before its publish returns,
    /// until [`Collector::reclaim`]. Dropping the collector drops a
    /// store still lent to it.
    ///
    /// # Panics
    ///
    /// Panics if a store is already lent.
    pub fn lend(&mut self, mut store: TimeSeriesStore) {
        self.pump(&mut store);
        let mut lane = self.subscription.lane();
        assert!(lane.store.is_none(), "a store is already lent");
        lane.store = Some(store);
    }

    /// Takes back the store lent by [`Collector::lend`], if any.
    pub fn reclaim(&mut self) -> Option<TimeSeriesStore> {
        self.subscription.lane().store.take()
    }

    /// Drains the samples the scrub refused since the last call, in
    /// arrival order.
    pub fn take_quarantined(&mut self) -> Vec<(Topic, Payload)> {
        std::mem::take(&mut self.subscription.lane().gate.quarantine)
    }

    /// The underlying subscription.
    pub fn subscription(&self) -> &Subscription {
        &self.subscription
    }

    /// Lands the deliveries made while no store was lent in `store`, in
    /// arrival order and through the scrub; returns how many, quarantined
    /// ones included. The store is identical to per-message inserts, and
    /// steady state (pre-registered topics, warm capacities) the lane
    /// allocates nothing per sample.
    pub fn pump(&mut self, store: &mut TimeSeriesStore) -> usize {
        let lane = &mut *self.subscription.lane();
        let landed = lane.waiting.len();
        for (topic, payload) in lane.waiting.drain(..) {
            lane.gate.land(store, topic, payload);
        }
        landed
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
        assert_eq!(collector.pump(&mut db), 24, "landed and quarantined");
        assert_eq!(collector.subscription().queued(), 0);
        assert_eq!(db.point_count(), 12, "only plausible samples land");
        let held: Vec<(Topic, f64)> = collector
            .take_quarantined()
            .into_iter()
            .map(|(topic, p)| (topic, p.value))
            .collect();
        assert_eq!(held, refused);
    }

    /// With a store lent, each sample is in the store (or the
    /// quarantine) as soon as `publish` or `publish_batch_serial`
    /// returns, nothing waits for a pump, and the broker's books read as
    /// they do for an ordinary subscriber.
    #[test]
    fn a_lent_store_holds_each_sample_when_its_publish_returns() {
        let power = power_topic(0);
        let (broker, plain) = (Broker::new(), Broker::new());
        let mut collector = Collector::attach(&broker, "#".parse().unwrap())
            .with_scrub(crate::scrub::ScrubPolicy::monte_cimone());
        let _twin = plain.subscribe("#".parse().unwrap());
        collector.lend(TimeSeriesStore::new());
        for (t, value) in [5.5, -5.5, 6.0, -6.0, 7.0].into_iter().enumerate() {
            let sample = (power, Payload::new(value, SimTime::from_secs(t as u64)));
            for broker in [&broker, &plain] {
                match t % 2 {
                    0 => broker.publish(&sample.0, sample.1),
                    _ => broker.publish_batch_serial(&mut vec![sample]),
                };
            }
            assert_eq!(broker.stats(), plain.stats());
            assert_eq!(collector.subscription().queued(), 0);
            let (store, refused) = (
                collector.reclaim().expect("lent"),
                collector.take_quarantined(),
            );
            assert_eq!(refused.len(), usize::from(value < 0.0));
            assert_eq!(store.point_count(), t / 2 + 1);
            let latest = store.latest(power.as_str()).map(|(_, v)| v);
            assert_eq!(latest, Some(value.abs()), "the last plausible sample");
            collector.lend(store);
        }
    }

    #[test]
    #[should_panic(expected = "consume it with Collector::pump")]
    fn collector_subscriptions_refuse_message_receives() {
        let broker = Broker::new();
        let collector = Collector::attach(&broker, "#".parse().unwrap());
        broker.publish(&"x".parse().unwrap(), Payload::new(1.0, SimTime::ZERO));
        collector.subscription().try_recv();
    }

    /// A dropped collector's waiting samples go with it; the broker then
    /// finds the subscriber dead, counts the delivery as dropped and
    /// prunes it.
    #[test]
    fn dropping_a_collector_releases_its_lane() {
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
