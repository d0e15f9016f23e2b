//! The MQTT-style broker at the heart of the ExaMon transport layer.
//!
//! Thread-safe topic-tree pub/sub: plugins publish from sampling threads,
//! collectors drain subscriptions into the time-series store. QoS 0
//! (fire-and-forget) semantics, matching ExaMon's MQTT usage.
//!
//! Routing is precompiled: the wildcard filter match for each
//! `(TopicId, SubscriptionId)` pair is computed once and cached as a
//! per-topic subscriber list, invalidated whenever the subscription set
//! changes (subscribe, unsubscribe, dead-subscriber pruning). On the
//! steady-state path a publish is a route-table hit plus one `VecDeque`
//! push per matched subscriber — no string matching, no topic deep-clone,
//! and (for pre-registered topics) no heap allocation at all.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use std::sync::{Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Shared queue state between the broker's send side and a subscription.
#[derive(Debug)]
struct QueueState {
    buf: VecDeque<PublishedMessage>,
    /// Messages lost to bounded-queue overflow.
    dropped: u64,
    /// Set when the broker side goes away (unsubscribe, prune, broker
    /// drop): `recv` returns `None` once the buffer is drained.
    closed: bool,
    /// Set when the `Subscription` handle is dropped: subsequent sends
    /// count as drops and the entry is pruned.
    receiver_gone: bool,
    /// Receivers blocked in `recv`. Senders skip the condvar notify (a
    /// futex syscall even with nobody waiting) unless this is non-zero —
    /// the simulation's poll-style consumers never block, so the
    /// steady-state send path stays entirely in user space.
    waiters: u32,
}

/// A subscription's message queue. A plain locked ring buffer: the deque
/// keeps its capacity across pushes and pops, so steady-state delivery
/// allocates nothing (unlike a segmented channel).
#[derive(Debug)]
struct SubQueue {
    // std primitives rather than the parking_lot shim: blocking `recv`
    // needs a condvar, which the shim does not provide.
    state: StdMutex<QueueState>,
    ready: Condvar,
}

enum SendOutcome {
    Delivered,
    Full,
    Dead,
}

impl SubQueue {
    fn new() -> Arc<SubQueue> {
        Arc::new(SubQueue {
            state: StdMutex::new(QueueState {
                buf: VecDeque::new(),
                dropped: 0,
                closed: false,
                receiver_gone: false,
                waiters: 0,
            }),
            ready: Condvar::new(),
        })
    }

    fn lock(&self) -> StdMutexGuard<'_, QueueState> {
        self.state.lock().expect("subscription queue poisoned")
    }

    fn send(&self, msg: PublishedMessage, capacity: Option<usize>) -> SendOutcome {
        let mut state = self.lock();
        if state.receiver_gone {
            return SendOutcome::Dead;
        }
        if let Some(cap) = capacity {
            if state.buf.len() >= cap {
                state.dropped += 1;
                return SendOutcome::Full;
            }
        }
        state.buf.push_back(msg);
        let waiting = state.waiters > 0;
        drop(state);
        if waiting {
            self.ready.notify_one();
        }
        SendOutcome::Delivered
    }

    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        let waiting = state.waiters > 0;
        drop(state);
        if waiting {
            self.ready.notify_all();
        }
    }
}

/// A live subscription handle; drop it (or unsubscribe) to stop receiving.
#[derive(Debug)]
pub struct Subscription {
    id: SubscriptionId,
    filter: TopicFilter,
    queue: Arc<SubQueue>,
}

impl Subscription {
    /// The subscription id.
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// The filter subscribed to.
    pub fn filter(&self) -> &TopicFilter {
        &self.filter
    }

    /// Messages currently queued and not yet received.
    pub fn queued(&self) -> usize {
        self.queue.lock().buf.len()
    }

    /// Messages this subscription lost because its bounded queue was full
    /// when the broker tried to deliver. Always zero for unbounded
    /// subscriptions.
    pub fn dropped(&self) -> u64 {
        self.queue.lock().dropped
    }

    /// Non-blocking receive. Already-queued messages remain receivable
    /// after the broker side closes.
    pub fn try_recv(&self) -> Option<PublishedMessage> {
        self.queue.lock().buf.pop_front()
    }

    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<PublishedMessage> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Drains everything currently queued into `out` under a single lock
    /// acquisition (one mutex round-trip per batch instead of one per
    /// message); returns how many messages were appended. The queue keeps
    /// its capacity, so a warm steady-state drain allocates nothing.
    pub fn drain_into(&self, out: &mut Vec<PublishedMessage>) -> usize {
        let mut state = self.queue.lock();
        let n = state.buf.len();
        out.extend(state.buf.drain(..));
        n
    }

    /// Drains everything currently queued, calling `f` on each message,
    /// under a single lock acquisition — the copy-free variant of
    /// [`drain_into`](Subscription::drain_into) for consumers that ingest
    /// in place. `f` must not publish to or (un)subscribe from the broker
    /// (the queue lock is held across the calls). Returns how many
    /// messages were consumed.
    pub fn drain_each(&self, mut f: impl FnMut(PublishedMessage)) -> usize {
        let mut state = self.queue.lock();
        let n = state.buf.len();
        for msg in state.buf.drain(..) {
            f(msg);
        }
        n
    }

    /// Blocking receive (used by collector threads); `None` once the
    /// broker side is gone and the queue is drained.
    pub fn recv(&self) -> Option<PublishedMessage> {
        let mut state = self.queue.lock();
        loop {
            if let Some(msg) = state.buf.pop_front() {
                return Some(msg);
            }
            if state.closed {
                return None;
            }
            state.waiters += 1;
            state = self
                .queue
                .ready
                .wait(state)
                .expect("subscription queue poisoned");
            state.waiters -= 1;
        }
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let mut state = self.queue.lock();
        state.receiver_gone = true;
        state.buf.clear();
    }
}

#[derive(Debug)]
struct SubEntry {
    id: SubscriptionId,
    filter: TopicFilter,
    queue: Arc<SubQueue>,
    /// Queue bound; `None` means unbounded (the seed behaviour).
    capacity: Option<usize>,
}

impl Drop for SubEntry {
    fn drop(&mut self) {
        // Covers unsubscribe, dead-subscriber pruning and broker drop:
        // a blocked `recv` wakes up and observes the closed queue.
        self.queue.close();
    }
}

/// Broker counters.
///
/// For every `publish`, each matching subscriber accounts for exactly one
/// of `delivered` or `dropped` — the books stay balanced even when
/// subscribers disconnect mid-burst or bounded queues overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BrokerStats {
    /// Messages published.
    pub published: u64,
    /// Deliveries fanned out (one per matching subscriber).
    pub delivered: u64,
    /// Matched deliveries that were not made: the subscriber's bounded
    /// queue was full, or the subscriber disconnected between matching
    /// and delivery.
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

/// The subscription set and its compiled routing table, guarded together
/// so a cached route can never outlive the subscription list it indexes.
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
    fn compute_route(&self, topic: &Topic) -> Vec<u32> {
        self.subs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.filter.matches(topic))
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn route_get(&self, tid: u32) -> Option<&Vec<u32>> {
        self.routes.get(tid as usize).and_then(Option::as_ref)
    }

    fn route_has(&self, tid: u32) -> bool {
        self.route_get(tid).is_some()
    }

    fn route_insert(&mut self, tid: u32, route: Vec<u32>) {
        let idx = tid as usize;
        if idx >= self.routes.len() {
            self.routes.resize_with(idx + 1, || None);
        }
        self.routes[idx] = Some(route);
    }

    fn routes_compiled(&self) -> usize {
        self.routes.iter().filter(|r| r.is_some()).count()
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
    table: RwLock<SubTable>,
    next_id: AtomicU64,
    published: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    suppressed: AtomicU64,
    loss: Mutex<Option<LossInjection>>,
    /// Recycled touched-lane scratch for [`Broker::publish_batch_serial`]
    /// — keeps the steady-state batch publish allocation-free.
    touched_scratch: Mutex<Vec<u32>>,
}

impl Broker {
    /// Creates an empty broker.
    pub fn new() -> Self {
        Broker::default()
    }

    /// Subscribes to `filter` with an unbounded queue.
    pub fn subscribe(&self, filter: TopicFilter) -> Subscription {
        self.subscribe_inner(filter, None)
    }

    /// Subscribes to `filter` with a queue bounded to `capacity` messages:
    /// deliveries while the queue is full are counted as drops (on the
    /// subscription and in [`BrokerStats::dropped`]) instead of growing
    /// memory without bound — the fate of a slow ExaMon consumer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn subscribe_bounded(&self, filter: TopicFilter, capacity: usize) -> Subscription {
        assert!(capacity > 0, "a bounded subscription needs capacity >= 1");
        self.subscribe_inner(filter, Some(capacity))
    }

    fn subscribe_inner(&self, filter: TopicFilter, capacity: Option<usize>) -> Subscription {
        let id = SubscriptionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let queue = SubQueue::new();
        let mut table = self.table.write();
        table.subs.push(SubEntry {
            id,
            filter: filter.clone(),
            queue: queue.clone(),
            capacity,
        });
        table.routes.clear();
        drop(table);
        Subscription { id, filter, queue }
    }

    /// Removes a subscription; returns whether it existed.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        let mut table = self.table.write();
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
    /// pruned lazily; a matched-but-undelivered message — bounded queue
    /// full, or receiver gone — counts as a drop, so
    /// `delivered + dropped` covers every matched subscriber.
    pub fn publish(&self, topic: &Topic, payload: Payload) -> usize {
        self.published.fetch_add(1, Ordering::Relaxed);
        {
            let mut loss = self.loss.lock();
            if let Some(inj) = loss.as_mut() {
                let rate = inj.rate;
                if rate > 0.0 && inj.rng.gen_bool(rate) {
                    self.suppressed.fetch_add(1, Ordering::Relaxed);
                    return 0;
                }
            }
        }
        let tid = topic.id().as_u32();
        let mut reached = 0;
        let mut dropped = 0u64;
        let mut dead: Vec<SubscriptionId> = Vec::new();
        {
            let table = self.table.read();
            if let Some(route) = table.route_get(tid) {
                deliver(
                    &table.subs,
                    route,
                    topic,
                    payload,
                    &mut reached,
                    &mut dropped,
                    &mut dead,
                );
            } else {
                drop(table);
                // First sight of this topic since the last subscription
                // change: compile its route under the write lock.
                let mut table = self.table.write();
                let route = table.compute_route(topic);
                deliver(
                    &table.subs,
                    &route,
                    topic,
                    payload,
                    &mut reached,
                    &mut dropped,
                    &mut dead,
                );
                table.route_insert(tid, route);
            }
        }
        if !dead.is_empty() {
            self.prune(&mut dead);
        }
        self.delivered.fetch_add(reached as u64, Ordering::Relaxed);
        self.dropped.fetch_add(dropped, Ordering::Relaxed);
        reached
    }

    /// Publishes a batch of messages serially, with observable semantics
    /// identical to calling [`publish`](Broker::publish) once per message
    /// in order: the same loss-RNG draw sequence, the same per-queue
    /// delivery order, and the same accounting — including the lazy prune
    /// after a dead subscriber's first hit (later messages in the batch
    /// skip it, exactly as the one-by-one sequence would after pruning).
    /// The broker locks are amortised over the whole batch, and `messages`
    /// is drained so the caller's buffer can be reused allocation-free.
    /// Returns the total number of deliveries made.
    pub fn publish_batch_serial(&self, messages: &mut Vec<(Topic, Payload)>) -> usize {
        if messages.is_empty() {
            return 0;
        }
        self.published
            .fetch_add(messages.len() as u64, Ordering::Relaxed);
        {
            let mut loss = self.loss.lock();
            if let Some(inj) = loss.as_mut() {
                if inj.rate > 0.0 {
                    let rate = inj.rate;
                    let mut suppressed = 0u64;
                    // In-place retain keeps the draws in message order.
                    messages.retain(|_| {
                        if inj.rng.gen_bool(rate) {
                            suppressed += 1;
                            false
                        } else {
                            true
                        }
                    });
                    self.suppressed.fetch_add(suppressed, Ordering::Relaxed);
                }
            }
        }
        if messages.is_empty() {
            return 0;
        }
        let mut reached = 0usize;
        let mut dropped = 0u64;
        let mut dead: Vec<SubscriptionId> = Vec::new();
        // Sub indices found dead during this batch: the one-by-one
        // sequence would have pruned them, so later messages skip them.
        let mut dead_idx: Vec<u32> = Vec::new();
        // The touched-lane scratch is recycled across calls so the
        // steady-state batch publish never allocates.
        let mut touched = std::mem::take(&mut *self.touched_scratch.lock());
        {
            // One walk over the batch collects the sorted set of touched
            // subscriber indices and detects uncompiled routes at the same
            // time (returns false on the first miss).
            fn collect_touched(
                table: &SubTable,
                messages: &[(Topic, Payload)],
                touched: &mut Vec<u32>,
            ) -> bool {
                touched.clear();
                for (topic, _) in messages {
                    match table.route_get(topic.id().as_u32()) {
                        Some(route) => {
                            for &i in route {
                                if let Err(pos) = touched.binary_search(&i) {
                                    touched.insert(pos, i);
                                }
                            }
                        }
                        None => return false,
                    }
                }
                true
            }
            let mut table = self.table.read();
            let mut all_cached = collect_touched(&table, messages, &mut touched);
            if !all_cached {
                // First sight of at least one topic since the last
                // subscription change: compile the missing routes under
                // the write lock, then retry the single collection walk.
                drop(table);
                {
                    let mut table = self.table.write();
                    for (topic, _) in messages.iter() {
                        let tid = topic.id().as_u32();
                        if !table.route_has(tid) {
                            let route = table.compute_route(topic);
                            table.route_insert(tid, route);
                        }
                    }
                }
                table = self.table.read();
                all_cached = collect_touched(&table, messages, &mut touched);
            }
            if all_cached {
                // Fast path: every route is cached, so the destination
                // queues are known up front. Lock each queue once for
                // the whole batch: one mutex round-trip per queue
                // instead of one per delivery.
                struct Lane<'a> {
                    sub: &'a SubEntry,
                    state: StdMutexGuard<'a, QueueState>,
                    pushed: usize,
                }
                /// The generic per-message walk: dead-subscriber and
                /// capacity checks per delivery, lanes addressed through
                /// the sorted touched set.
                #[allow(clippy::too_many_arguments)]
                fn deliver_batch(
                    table: &SubTable,
                    touched: &[u32],
                    messages: &mut Vec<(Topic, Payload)>,
                    lanes: &mut [Lane<'_>],
                    reached: &mut usize,
                    dropped: &mut u64,
                    dead: &mut Vec<SubscriptionId>,
                    dead_idx: &mut Vec<u32>,
                ) {
                    for (topic, payload) in messages.drain(..) {
                        let route = table.route_get(topic.id().as_u32()).expect("checked above");
                        for &i in route {
                            if dead_idx.contains(&i) {
                                continue;
                            }
                            let lane = &mut lanes
                                [touched.binary_search(&i).expect("touched covers routes")];
                            if lane.state.receiver_gone {
                                *dropped += 1;
                                dead.push(lane.sub.id);
                                dead_idx.push(i);
                                continue;
                            }
                            if let Some(cap) = lane.sub.capacity {
                                if lane.state.buf.len() >= cap {
                                    lane.state.dropped += 1;
                                    *dropped += 1;
                                    continue;
                                }
                            }
                            lane.state
                                .buf
                                .push_back(PublishedMessage { topic, payload });
                            lane.pushed += 1;
                            *reached += 1;
                        }
                    }
                }
                fn finish(lane: Lane<'_>) {
                    let waiting = lane.pushed > 0 && lane.state.waiters > 0;
                    drop(lane.state);
                    if waiting {
                        lane.sub.queue.ready.notify_all();
                    }
                }
                if let [only] = touched.as_slice() {
                    // One destination queue: hold its lane on the stack —
                    // no per-batch lane vector to allocate.
                    let sub = &table.subs[*only as usize];
                    let mut lane = Lane {
                        sub,
                        state: sub.queue.lock(),
                        pushed: 0,
                    };
                    if lane.sub.capacity.is_none() && !lane.state.receiver_gone {
                        // Single live unbounded destination — the engine's
                        // steady state, where one collector subscribes to
                        // everything. Each route is either empty or exactly
                        // this lane, so the per-delivery dead/capacity
                        // checks hoist out of the loop entirely.
                        for (topic, payload) in messages.drain(..) {
                            let route =
                                table.route_get(topic.id().as_u32()).expect("checked above");
                            if route.is_empty() {
                                continue;
                            }
                            lane.state
                                .buf
                                .push_back(PublishedMessage { topic, payload });
                            lane.pushed += 1;
                            reached += 1;
                        }
                    } else {
                        deliver_batch(
                            &table,
                            &touched,
                            messages,
                            std::slice::from_mut(&mut lane),
                            &mut reached,
                            &mut dropped,
                            &mut dead,
                            &mut dead_idx,
                        );
                    }
                    finish(lane);
                } else {
                    let mut lanes: Vec<Lane<'_>> = touched
                        .iter()
                        .map(|&i| {
                            let sub = &table.subs[i as usize];
                            Lane {
                                sub,
                                state: sub.queue.lock(),
                                pushed: 0,
                            }
                        })
                        .collect();
                    deliver_batch(
                        &table,
                        &touched,
                        messages,
                        &mut lanes,
                        &mut reached,
                        &mut dropped,
                        &mut dead,
                        &mut dead_idx,
                    );
                    for lane in lanes {
                        finish(lane);
                    }
                }
            } else {
                // Cache cleared by a concurrent (un)subscribe between the
                // compile pass and here: fall back to per-message sends
                // with on-the-fly route computation.
                let mut fallback: Vec<u32>;
                for (topic, payload) in messages.iter() {
                    let route: &[u32] = match table.route_get(topic.id().as_u32()) {
                        Some(route) => route,
                        None => {
                            fallback = table.compute_route(topic);
                            &fallback
                        }
                    };
                    for &i in route {
                        if dead_idx.contains(&i) {
                            continue;
                        }
                        let sub = &table.subs[i as usize];
                        let msg = PublishedMessage {
                            topic: *topic,
                            payload: *payload,
                        };
                        match sub.queue.send(msg, sub.capacity) {
                            SendOutcome::Delivered => reached += 1,
                            SendOutcome::Full => dropped += 1,
                            SendOutcome::Dead => {
                                dropped += 1;
                                dead.push(sub.id);
                                dead_idx.push(i);
                            }
                        }
                    }
                }
            }
        }
        touched.clear();
        *self.touched_scratch.lock() = touched;
        if !dead.is_empty() {
            self.prune(&mut dead);
        }
        self.delivered.fetch_add(reached as u64, Ordering::Relaxed);
        self.dropped.fetch_add(dropped, Ordering::Relaxed);
        messages.clear();
        reached
    }

    /// Removes dead subscriptions in one pass: sort + dedup the ids and
    /// binary-search during the retain, so pruning costs
    /// O((dead log dead) + subs log dead) instead of O(dead × subs).
    fn prune(&self, dead: &mut Vec<SubscriptionId>) {
        dead.sort_unstable();
        dead.dedup();
        let mut table = self.table.write();
        let before = table.subs.len();
        table.subs.retain(|s| dead.binary_search(&s.id).is_err());
        if table.subs.len() != before {
            table.routes.clear();
        }
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
        *self.loss.lock() = (rate > 0.0).then(|| LossInjection {
            rate,
            rng: StdRng::seed_from_u64(seed),
        });
    }

    /// Current counters.
    pub fn stats(&self) -> BrokerStats {
        BrokerStats {
            published: self.published.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            suppressed: self.suppressed.load(Ordering::Relaxed),
        }
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.table.read().subs.len()
    }

    /// Number of topics with a compiled route in the cache. Diagnostic:
    /// steady-state traffic over pre-registered topics holds this constant
    /// while every publish hits the cache.
    pub fn compiled_routes(&self) -> usize {
        self.table.read().routes_compiled()
    }
}

/// Delivers one message along a compiled route, updating the accounting
/// exactly as the legacy per-publish filter walk did.
fn deliver(
    subs: &[SubEntry],
    route: &[u32],
    topic: &Topic,
    payload: Payload,
    reached: &mut usize,
    dropped: &mut u64,
    dead: &mut Vec<SubscriptionId>,
) {
    for &i in route {
        let sub = &subs[i as usize];
        let msg = PublishedMessage {
            topic: *topic,
            payload,
        };
        match sub.queue.send(msg, sub.capacity) {
            SendOutcome::Delivered => *reached += 1,
            SendOutcome::Full => *dropped += 1,
            SendOutcome::Dead => {
                *dropped += 1;
                if !dead.contains(&sub.id) {
                    dead.push(sub.id);
                }
            }
        }
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
    fn bounded_subscription_drops_overflow_and_accounts_for_it() {
        let broker = Broker::new();
        let sub = broker.subscribe_bounded(f("#"), 3);
        for i in 0..5 {
            broker.publish(&t("x"), Payload::new(i as f64, SimTime::ZERO));
        }
        assert_eq!(sub.queued(), 3);
        assert_eq!(sub.dropped(), 2);
        let stats = broker.stats();
        assert_eq!(stats.published, 5);
        assert_eq!(stats.delivered, 3);
        assert_eq!(stats.dropped, 2);
        // Draining frees capacity for new deliveries.
        assert_eq!(sub.drain().len(), 3);
        assert_eq!(sub.queued(), 0);
        broker.publish(&t("x"), Payload::new(9.0, SimTime::ZERO));
        assert_eq!(sub.try_recv().unwrap().payload.value, 9.0);
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
            let bounded = broker.subscribe_bounded(f("#"), 10);
            broker.set_loss(0.3, 99);
            for (topic, payload) in &messages {
                broker.publish(topic, *payload);
            }
            (all.drain(), some.drain(), bounded.drain(), broker.stats())
        };
        let run_batch = || {
            let broker = Broker::new();
            let all = broker.subscribe(f("#"));
            let some = broker.subscribe(f("node/3/+"));
            let bounded = broker.subscribe_bounded(f("#"), 10);
            broker.set_loss(0.3, 99);
            broker.publish_batch_serial(&mut messages.clone());
            (all.drain(), some.drain(), bounded.drain(), broker.stats())
        };
        let (sa, ss, sb, sst) = run_seq();
        let (ba, bs, bb, bst) = run_batch();
        assert_eq!(sa, ba, "wildcard subscriber sees identical stream");
        assert_eq!(ss, bs, "filtered subscriber sees identical stream");
        assert_eq!(sb, bb, "bounded subscriber drops identically");
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

    #[test]
    fn concurrent_publishers_do_not_lose_messages() {
        let broker = std::sync::Arc::new(Broker::new());
        let sub = broker.subscribe(f("#"));
        let mut handles = Vec::new();
        for thread in 0..4 {
            let b = broker.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    b.publish(
                        &format!("t/{thread}/{i}").parse().unwrap(),
                        Payload::new(i as f64, SimTime::ZERO),
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sub.drain().len(), 1000);
        assert_eq!(broker.stats().published, 1000);
    }
}
