//! The MQTT-style broker at the heart of the ExaMon transport layer.
//!
//! Topic-tree pub/sub: plugins publish, collectors drain subscriptions
//! into the time-series store. QoS 0 (fire-and-forget) semantics,
//! matching ExaMon's MQTT usage. On Monte Cimone the broker is a separate
//! service; here it is an in-process structure driven by the simulator's
//! one serial loop, so its state sits in `Cell`s and `RefCell`s and each
//! subscription shares its queue with the broker through an `Rc`. Neither
//! the broker nor a subscription is `Send`.
//!
//! Routing is precompiled: the wildcard filter match for each
//! `(TopicId, SubscriptionId)` pair is computed once and cached as a
//! per-topic subscriber list, invalidated whenever the subscription set
//! changes (subscribe, unsubscribe, dead-subscriber pruning). On the
//! steady-state path a publish is a route-table hit plus one push per
//! matched subscriber — no string matching, no topic deep-clone, and (for
//! pre-registered topics) no heap allocation at all.
//!
//! A subscription takes its deliveries in one of two ways: an ordinary
//! subscriber queues whole messages in a FIFO, and a
//! [`Collector`](crate::collector::Collector)'s lane scrubs each sample
//! and inserts it into the store lent to it before the publish returns
//! (or, with no store lent, queues it for the next pump). Every delivery
//! site goes through one `push` on the queue state, so loss draws,
//! dead-subscriber pruning and [`BrokerStats`] do not depend on the
//! consumer.

use std::cell::{Cell, RefCell, RefMut};
use std::collections::VecDeque;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::collector::Lane;
use crate::payload::Payload;
use crate::topic::{Topic, TopicFilter};

/// A message as delivered to subscribers.
///
/// `Topic` is an interned handle, so the message is two words of payload
/// plus a reference-count bump — no per-delivery string cloning.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishedMessage {
    /// The concrete topic it was published under.
    pub topic: Topic,
    /// The decoded payload.
    pub payload: Payload,
}

/// Identifies a subscription for unsubscribe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(u64);

/// Where a subscription's deliveries go.
#[derive(Debug)]
enum Pending {
    /// Whole messages in arrival order: ordinary subscribers.
    Messages(VecDeque<PublishedMessage>),
    /// A collector's lane, which lands each sample in the store lent to
    /// it or holds it for the next pump.
    Lane(Lane),
}

/// A subscription's queue, shared by the broker's routing table and the
/// subscription handle. The deque and the lane keep their capacity
/// across deliveries and drains, so steady-state delivery allocates
/// nothing.
#[derive(Debug)]
struct QueueState {
    pending: Pending,
    /// Set when the `Subscription` handle is dropped: later deliveries
    /// count as drops and the entry is pruned.
    receiver_gone: bool,
}

type Queue = Rc<RefCell<QueueState>>;

impl QueueState {
    /// Hands one delivery to the subscription's consumer.
    #[inline]
    fn push(&mut self, topic: Topic, payload: Payload) {
        match &mut self.pending {
            Pending::Messages(buf) => buf.push_back(PublishedMessage { topic, payload }),
            Pending::Lane(lane) => lane.push(topic, payload),
        }
    }

    /// The message FIFO; panics on a collector's subscription, whose
    /// samples land in a store.
    fn messages(&mut self) -> &mut VecDeque<PublishedMessage> {
        match &mut self.pending {
            Pending::Messages(buf) => buf,
            Pending::Lane(_) => {
                panic!("a collector lands samples in a store: consume it with Collector::pump")
            }
        }
    }
}

/// A live subscription handle; drop it (or unsubscribe) to stop receiving.
#[derive(Debug)]
pub struct Subscription {
    id: SubscriptionId,
    queue: Queue,
}

impl Subscription {
    /// The subscription id.
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// Deliveries held and not yet consumed: queued messages, or, on a
    /// collector's subscription, the samples waiting for its next pump —
    /// none while a store is lent to it, since those land at delivery.
    pub fn queued(&self) -> usize {
        match &self.queue.borrow().pending {
            Pending::Messages(buf) => buf.len(),
            Pending::Lane(lane) => lane.waiting.len(),
        }
    }

    /// Non-blocking receive. Already-queued messages remain receivable
    /// after unsubscribing.
    ///
    /// # Panics
    ///
    /// Panics on a collector's subscription, as does the `drain*`
    /// family: its samples land in a store
    /// ([`Collector`](crate::collector::Collector)).
    pub fn try_recv(&self) -> Option<PublishedMessage> {
        self.queue.borrow_mut().messages().pop_front()
    }

    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<PublishedMessage> {
        self.queue.borrow_mut().messages().drain(..).collect()
    }

    /// Drains everything currently queued, calling `f` on each message —
    /// the copy-free variant of [`drain`](Subscription::drain) for
    /// consumers that ingest in place. The queue stays borrowed
    /// across the calls, so `f` must not publish to the broker: a
    /// delivery to this queue would panic. Returns how many messages were
    /// consumed.
    pub fn drain_each(&self, mut f: impl FnMut(PublishedMessage)) -> usize {
        let mut state = self.queue.borrow_mut();
        let buf = state.messages();
        let n = buf.len();
        for msg in buf.drain(..) {
            f(msg);
        }
        n
    }

    /// A collector subscription's lane.
    pub(crate) fn lane(&self) -> RefMut<'_, Lane> {
        RefMut::map(self.queue.borrow_mut(), |state| match &mut state.pending {
            Pending::Lane(lane) => lane,
            Pending::Messages(_) => unreachable!("collectors subscribe with a lane"),
        })
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let mut state = self.queue.borrow_mut();
        state.receiver_gone = true;
        // Release what is held; later deliveries are refused as dead.
        state.pending = match state.pending {
            Pending::Messages(_) => Pending::Messages(VecDeque::new()),
            Pending::Lane(_) => Pending::Lane(Lane::default()),
        };
    }
}

#[derive(Debug)]
struct SubEntry {
    id: SubscriptionId,
    filter: TopicFilter,
    queue: Queue,
}

/// Broker counters.
///
/// For every `publish`, each matching subscriber accounts for exactly one
/// of `delivered` or `dropped` — the books stay balanced even when
/// subscribers disconnect mid-burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BrokerStats {
    /// Messages published.
    pub published: u64,
    /// Deliveries fanned out (one per matching subscriber).
    pub delivered: u64,
    /// Matched deliveries that were not made because the subscriber had
    /// dropped its handle.
    pub dropped: u64,
    /// Whole publishes suppressed by injected message loss
    /// ([`Broker::set_loss`]) before any fan-out.
    pub suppressed: u64,
}

/// Seeded wire-loss injection state.
#[derive(Debug)]
struct LossInjection {
    rate: f64,
    rng: StdRng,
}

/// The subscription set and its compiled routing table, kept together so
/// a cached route can never outlive the subscription list it indexes.
#[derive(Debug, Default)]
struct SubTable {
    subs: Vec<SubEntry>,
    /// Indexed directly by `TopicId` value (interned ids are small and
    /// dense, so this is a flat array rather than a hash map — a route
    /// hit is one bounds check and a pointer load, no hashing). Each
    /// present entry is the ascending indices into `subs` of matching
    /// subscriptions. Cleared wholesale on any subscription-set change;
    /// recompiled lazily per topic on the next publish.
    routes: Vec<Option<Vec<u32>>>,
}

impl SubTable {
    /// Compiles `topic`'s route unless it is cached.
    fn compile(&mut self, topic: &Topic) {
        let idx = topic.id().index();
        if idx >= self.routes.len() {
            self.routes.resize_with(idx + 1, || None);
        }
        let subs = &self.subs;
        self.routes[idx].get_or_insert_with(|| {
            subs.iter()
                .enumerate()
                .filter(|(_, s)| s.filter.matches(topic))
                .map(|(i, _)| i as u32)
                .collect()
        });
    }

    /// `topic`'s compiled route.
    fn route(&self, topic: &Topic) -> &[u32] {
        self.routes[topic.id().index()]
            .as_deref()
            .expect("route compiled before use")
    }

    /// Compiles the batch's routes and returns the one subscriber every
    /// non-empty route consists of; `None` if the batch reaches two
    /// subscribers or none.
    fn sole_destination(&mut self, messages: &[(Topic, Payload)]) -> Option<u32> {
        let mut sole = None;
        for (topic, _) in messages {
            self.compile(topic);
            match *self.route(topic) {
                [] => {}
                [i] if sole.is_none_or(|s| s == i) => sole = Some(i),
                _ => return None,
            }
        }
        sole
    }

    /// Removes dead subscriptions in one pass: sort the ids and
    /// binary-search during the retain, so pruning costs
    /// O((dead log dead) + subs log dead) instead of O(dead × subs).
    fn prune(&mut self, dead: &mut [SubscriptionId]) {
        dead.sort_unstable();
        self.subs.retain(|s| dead.binary_search(&s.id).is_err());
        self.routes.clear();
    }
}

/// The broker.
///
/// # Examples
///
/// ```
/// use cimone_monitor::broker::Broker;
/// use cimone_monitor::payload::Payload;
/// use cimone_soc::units::SimTime;
///
/// let broker = Broker::new();
/// let sub = broker.subscribe("sensors/#".parse()?);
/// broker.publish(&"sensors/temp".parse()?, Payload::new(48.0, SimTime::ZERO));
/// assert_eq!(sub.try_recv().unwrap().payload.value, 48.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct Broker {
    table: RefCell<SubTable>,
    next_id: Cell<u64>,
    stats: Cell<BrokerStats>,
    loss: RefCell<Option<LossInjection>>,
}

impl Broker {
    /// Creates an empty broker.
    pub fn new() -> Self {
        Broker::default()
    }

    /// Subscribes to `filter`.
    pub fn subscribe(&self, filter: TopicFilter) -> Subscription {
        self.subscribe_inner(filter, Pending::Messages(VecDeque::new()))
    }

    /// Subscribes a collector: deliveries go to its lane instead of a
    /// message queue.
    pub(crate) fn subscribe_collector(&self, filter: TopicFilter) -> Subscription {
        self.subscribe_inner(filter, Pending::Lane(Lane::default()))
    }

    fn subscribe_inner(&self, filter: TopicFilter, pending: Pending) -> Subscription {
        let id = SubscriptionId(self.next_id.get());
        self.next_id.set(id.0 + 1);
        let queue = Rc::new(RefCell::new(QueueState {
            pending,
            receiver_gone: false,
        }));
        let mut table = self.table.borrow_mut();
        table.subs.push(SubEntry {
            id,
            filter,
            queue: Rc::clone(&queue),
        });
        table.routes.clear();
        Subscription { id, queue }
    }

    /// Removes a subscription; returns whether it existed.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        let mut table = self.table.borrow_mut();
        let before = table.subs.len();
        table.subs.retain(|s| s.id != id);
        let removed = table.subs.len() != before;
        if removed {
            table.routes.clear();
        }
        removed
    }

    /// Publishes `payload` under `topic`; returns the number of
    /// subscribers it reached. Dead subscriptions (dropped receivers) are
    /// pruned lazily; a matched-but-undelivered message counts as a drop,
    /// so `delivered + dropped` covers every matched subscriber.
    pub fn publish(&self, topic: &Topic, payload: Payload) -> usize {
        let lost = self
            .loss
            .borrow_mut()
            .as_mut()
            .is_some_and(|inj| inj.rng.gen_bool(inj.rate));
        self.tally(|s| {
            s.published += 1;
            s.suppressed += u64::from(lost);
        });
        if lost {
            return 0;
        }
        self.deliver(topic, payload)
    }

    /// Publishes a batch of messages, with observable semantics identical
    /// to calling [`publish`](Broker::publish) once per message in order:
    /// the same loss-RNG draw sequence, the same per-queue delivery order,
    /// and the same accounting. A batch whose every message goes to one
    /// live subscriber or nowhere — the engine's tick batch, which only
    /// its `#` collector matches — is pushed into that queue in one walk;
    /// any other batch is delivered message by message. `messages` is
    /// drained so the caller's buffer can be reused allocation-free.
    /// Returns the total number of deliveries made.
    pub fn publish_batch_serial(&self, messages: &mut Vec<(Topic, Payload)>) -> usize {
        if messages.is_empty() {
            return 0;
        }
        let published = messages.len() as u64;
        if let Some(inj) = self.loss.borrow_mut().as_mut() {
            // In-place retain keeps the draws in message order.
            messages.retain(|_| !inj.rng.gen_bool(inj.rate));
        }
        let suppressed = published - messages.len() as u64;
        self.tally(|s| {
            s.published += published;
            s.suppressed += suppressed;
        });
        let mut table = self.table.borrow_mut();
        if let Some(i) = table.sole_destination(messages) {
            let table = &*table;
            let mut queue = table.subs[i as usize].queue.borrow_mut();
            if !queue.receiver_gone {
                // Each route is either empty or exactly this queue.
                let mut reached = 0;
                for (topic, payload) in messages.drain(..) {
                    if !table.route(&topic).is_empty() {
                        queue.push(topic, payload);
                        reached += 1;
                    }
                }
                self.tally(|s| s.delivered += reached as u64);
                return reached;
            }
        }
        drop(table);
        messages
            .drain(..)
            .map(|(topic, payload)| self.deliver(&topic, payload))
            .sum()
    }

    /// Delivers one message along its compiled route and prunes the
    /// subscribers found dead there; returns the subscribers reached.
    fn deliver(&self, topic: &Topic, payload: Payload) -> usize {
        let mut table = self.table.borrow_mut();
        table.compile(topic);
        let mut reached = 0;
        let mut dead: Vec<SubscriptionId> = Vec::new();
        for &i in table.route(topic) {
            let sub = &table.subs[i as usize];
            let mut queue = sub.queue.borrow_mut();
            if queue.receiver_gone {
                dead.push(sub.id);
            } else {
                queue.push(*topic, payload);
                reached += 1;
            }
        }
        if !dead.is_empty() {
            table.prune(&mut dead);
        }
        self.tally(|s| {
            s.delivered += reached as u64;
            s.dropped += dead.len() as u64;
        });
        reached
    }

    /// Applies `f` to the counters.
    fn tally(&self, f: impl FnOnce(&mut BrokerStats)) {
        let mut stats = self.stats.get();
        f(&mut stats);
        self.stats.set(stats);
    }

    /// Configures deterministic wire loss: each subsequent publish is
    /// suppressed with probability `rate`, driven by a RNG seeded with
    /// `seed` (identical seeds and traffic give identical loss patterns).
    /// A rate of `0.0` disables injection.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn set_loss(&self, rate: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&rate), "loss rate must be in [0, 1]");
        *self.loss.borrow_mut() = (rate > 0.0).then(|| LossInjection {
            rate,
            rng: StdRng::seed_from_u64(seed),
        });
    }

    /// Current counters.
    pub fn stats(&self) -> BrokerStats {
        self.stats.get()
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.table.borrow().subs.len()
    }

    /// Number of topics with a compiled route in the cache. Diagnostic:
    /// steady-state traffic over pre-registered topics holds this constant
    /// while every publish hits the cache.
    pub fn compiled_routes(&self) -> usize {
        self.table
            .borrow()
            .routes
            .iter()
            .filter(|r| r.is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimone_soc::units::SimTime;

    fn t(s: &str) -> Topic {
        s.parse().unwrap()
    }

    fn f(s: &str) -> TopicFilter {
        s.parse().unwrap()
    }

    #[test]
    fn routing_respects_filters() {
        let broker = Broker::new();
        let all = broker.subscribe(f("#"));
        let temps = broker.subscribe(f("node/+/temp"));
        broker.publish(&t("node/a/temp"), Payload::new(1.0, SimTime::ZERO));
        broker.publish(&t("node/a/power"), Payload::new(2.0, SimTime::ZERO));
        assert_eq!(all.drain().len(), 2);
        let got = temps.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload.value, 1.0);
    }

    #[test]
    fn publish_reports_reach() {
        let broker = Broker::new();
        let _a = broker.subscribe(f("x/#"));
        let _b = broker.subscribe(f("x/y"));
        let reach = broker.publish(&t("x/y"), Payload::new(0.0, SimTime::ZERO));
        assert_eq!(reach, 2);
        assert_eq!(broker.publish(&t("z"), Payload::new(0.0, SimTime::ZERO)), 0);
        let stats = broker.stats();
        assert_eq!(stats.published, 2);
        assert_eq!(stats.delivered, 2);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let broker = Broker::new();
        let sub = broker.subscribe(f("#"));
        assert!(broker.unsubscribe(sub.id()));
        assert!(!broker.unsubscribe(sub.id()));
        broker.publish(&t("a"), Payload::new(0.0, SimTime::ZERO));
        assert!(sub.try_recv().is_none());
        assert_eq!(broker.subscription_count(), 0);
    }

    #[test]
    fn dropped_subscribers_are_pruned_on_publish() {
        let broker = Broker::new();
        let sub = broker.subscribe(f("#"));
        drop(sub);
        assert_eq!(broker.subscription_count(), 1);
        broker.publish(&t("a"), Payload::new(0.0, SimTime::ZERO));
        assert_eq!(broker.subscription_count(), 0);
    }

    #[test]
    fn route_cache_compiles_once_and_invalidates_on_change() {
        let broker = Broker::new();
        let _all = broker.subscribe(f("route/#"));
        assert_eq!(broker.compiled_routes(), 0);
        for i in 0..10 {
            broker.publish(&t("route/x"), Payload::new(i as f64, SimTime::ZERO));
        }
        assert_eq!(broker.compiled_routes(), 1, "one topic, one compile");
        broker.publish(&t("route/y"), Payload::new(0.0, SimTime::ZERO));
        assert_eq!(broker.compiled_routes(), 2);
        // A new subscription changes what existing topics should match:
        // the whole cache is invalidated, then recompiled per topic.
        let narrow = broker.subscribe(f("route/y"));
        assert_eq!(broker.compiled_routes(), 0);
        broker.publish(&t("route/y"), Payload::new(1.0, SimTime::ZERO));
        assert_eq!(narrow.drain().len(), 1);
        assert_eq!(broker.compiled_routes(), 1);
        // Unsubscribe invalidates too.
        broker.unsubscribe(narrow.id());
        assert_eq!(broker.compiled_routes(), 0);
        broker.publish(&t("route/y"), Payload::new(2.0, SimTime::ZERO));
        assert_eq!(broker.compiled_routes(), 1);
    }

    #[test]
    fn many_dead_subscribers_are_pruned_in_one_publish() {
        // Regression test for the O(dead × subs) prune: a large batch of
        // dropped receivers must be pruned in one pass with balanced
        // accounting.
        let broker = Broker::new();
        let keeper = broker.subscribe(f("#"));
        let quitters: Vec<Subscription> = (0..500).map(|_| broker.subscribe(f("#"))).collect();
        drop(quitters);
        assert_eq!(broker.subscription_count(), 501);
        let reached = broker.publish(&t("a"), Payload::new(1.0, SimTime::ZERO));
        assert_eq!(reached, 1);
        assert_eq!(broker.subscription_count(), 1);
        let stats = broker.stats();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.dropped, 500, "each dead subscriber counts once");
        assert_eq!(keeper.drain().len(), 1);
        // The next publish walks only the surviving subscription.
        broker.publish(&t("a"), Payload::new(2.0, SimTime::ZERO));
        assert_eq!(broker.stats().dropped, 500);
    }

    #[test]
    fn injected_loss_is_seeded_and_counted() {
        let run = |seed: u64| {
            let broker = Broker::new();
            let sub = broker.subscribe(f("#"));
            broker.set_loss(0.4, seed);
            for i in 0..100 {
                broker.publish(&t("x"), Payload::new(i as f64, SimTime::ZERO));
            }
            (sub.drain().len(), broker.stats())
        };
        let (got_a, stats_a) = run(5);
        let (got_b, stats_b) = run(5);
        assert_eq!(got_a, got_b, "same seed, same loss pattern");
        assert_eq!(stats_a, stats_b);
        assert_eq!(stats_a.published, 100);
        assert_eq!(stats_a.suppressed + got_a as u64, 100);
        assert!(stats_a.suppressed > 10);
        // Disabling restores full delivery.
        let broker = Broker::new();
        let sub = broker.subscribe(f("#"));
        broker.set_loss(1.0, 1);
        broker.set_loss(0.0, 1);
        broker.publish(&t("x"), Payload::new(0.0, SimTime::ZERO));
        assert_eq!(sub.drain().len(), 1);
    }

    #[test]
    fn delivery_accounting_balances_under_disconnect() {
        let broker = Broker::new();
        let keeper = broker.subscribe(f("#"));
        let quitter = broker.subscribe(f("#"));
        broker.publish(&t("a"), Payload::new(1.0, SimTime::ZERO));
        drop(quitter);
        // The dropped receiver is detected on the next publish: that
        // delivery is accounted as dropped, not silently lost.
        broker.publish(&t("b"), Payload::new(2.0, SimTime::ZERO));
        broker.publish(&t("c"), Payload::new(3.0, SimTime::ZERO));
        let stats = broker.stats();
        assert_eq!(stats.published, 3);
        assert_eq!(stats.delivered, 4); // keeper x3 + quitter x1
        assert_eq!(stats.dropped, 1); // quitter's missed second message
        assert_eq!(keeper.drain().len(), 3);
        assert_eq!(broker.subscription_count(), 1);
    }

    #[test]
    fn publish_batch_serial_matches_sequential_publishes_exactly() {
        let messages: Vec<(Topic, Payload)> = (0..200)
            .map(|i| {
                (
                    t(&format!("node/{}/temp", i % 7)),
                    Payload::new(i as f64, SimTime::from_secs(i)),
                )
            })
            .collect();
        let run_seq = || {
            let broker = Broker::new();
            let all = broker.subscribe(f("#"));
            let some = broker.subscribe(f("node/3/+"));
            broker.set_loss(0.3, 99);
            for (topic, payload) in &messages {
                broker.publish(topic, *payload);
            }
            (all.drain(), some.drain(), broker.stats())
        };
        let run_batch = || {
            let broker = Broker::new();
            let all = broker.subscribe(f("#"));
            let some = broker.subscribe(f("node/3/+"));
            broker.set_loss(0.3, 99);
            broker.publish_batch_serial(&mut messages.clone());
            (all.drain(), some.drain(), broker.stats())
        };
        let (sa, ss, sst) = run_seq();
        let (ba, bs, bst) = run_batch();
        assert_eq!(sa, ba, "wildcard subscriber sees identical stream");
        assert_eq!(ss, bs, "filtered subscriber sees identical stream");
        assert_eq!(sst, bst, "stats balance identically");
    }

    #[test]
    fn publish_batch_serial_prunes_dead_subscribers() {
        let broker = Broker::new();
        let keeper = broker.subscribe(f("#"));
        let quitter = broker.subscribe(f("#"));
        drop(quitter);
        let mut batch: Vec<(Topic, Payload)> = (0..5)
            .map(|i| (t("x"), Payload::new(i as f64, SimTime::ZERO)))
            .collect();
        let reached = broker.publish_batch_serial(&mut batch);
        assert_eq!(reached, 5);
        assert_eq!(keeper.drain().len(), 5);
        assert_eq!(broker.subscription_count(), 1);
        let stats = broker.stats();
        assert_eq!(stats.published, 5);
        assert_eq!(stats.delivered, 5);
        // Sequence-exact accounting: the first message finds the quitter
        // dead (one drop); the one-by-one publish sequence would prune it
        // there, so the remaining four skip it — same books as a loop of
        // `publish` calls.
        assert_eq!(stats.dropped, 1);
    }
}
