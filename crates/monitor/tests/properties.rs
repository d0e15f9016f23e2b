//! Property-based tests for the topic algebra, the time-series store,
//! broker routing and the collector's columnar lane.

use proptest::prelude::*;

use cimone_monitor::broker::Broker;
use cimone_monitor::collector::Collector;
use cimone_monitor::payload::Payload;
use cimone_monitor::scrub::ScrubPolicy;
use cimone_monitor::topic::{Topic, TopicFilter};
use cimone_monitor::tsdb::{Aggregation, TimeSeriesStore};
use cimone_soc::units::{SimDuration, SimTime};

fn segment_strategy() -> impl Strategy<Value = String> {
    "[a-z0-9_.-]{1,8}"
}

fn topic_strategy() -> impl Strategy<Value = Topic> {
    prop::collection::vec(segment_strategy(), 1..8).prop_map(Topic::new)
}

proptest! {
    #[test]
    fn topic_display_parse_round_trips(t in topic_strategy()) {
        let back: Topic = t.to_string().parse().expect("display parses");
        prop_assert_eq!(back, t);
    }

    #[test]
    fn hash_filter_matches_everything(t in topic_strategy()) {
        let f: TopicFilter = "#".parse().expect("valid");
        prop_assert!(f.matches(&t));
    }

    #[test]
    fn a_topic_used_as_filter_matches_exactly_itself(
        a in topic_strategy(),
        b in topic_strategy(),
    ) {
        let f: TopicFilter = a.to_string().parse().expect("literal filter");
        prop_assert!(f.matches(&a));
        prop_assert_eq!(f.matches(&b), a == b);
    }

    #[test]
    fn prefix_hash_filter_matches_all_extensions(
        t in topic_strategy(),
        ext in prop::collection::vec(segment_strategy(), 0..4),
    ) {
        let f: TopicFilter = format!("{t}/#").parse().expect("valid");
        let extended = Topic::new(
            t.segments().iter().cloned().chain(ext).collect::<Vec<_>>(),
        );
        prop_assert!(f.matches(&extended));
    }

    #[test]
    fn interning_is_stable_and_lossless(t in topic_strategy()) {
        // Re-parsing the rendered form lands on the same interned handle,
        // and the id resolves back to a topic with identical segments.
        let reparsed: Topic = t.to_string().parse().expect("display parses");
        prop_assert_eq!(reparsed.id(), t.id());
        let resolved = Topic::from_id(t.id()).expect("registered id resolves");
        prop_assert_eq!(resolved.segments(), t.segments());
        prop_assert_eq!(resolved.as_str(), t.as_str());
    }

    #[test]
    fn plus_wildcard_matches_any_single_segment(
        prefix in segment_strategy(),
        middle in segment_strategy(),
        suffix in segment_strategy(),
    ) {
        let f: TopicFilter = format!("{prefix}/+/{suffix}").parse().expect("valid");
        let t: Topic = format!("{prefix}/{middle}/{suffix}").parse().expect("valid");
        prop_assert!(f.matches(&t));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Inserting points in any order yields a time-sorted series whose
    /// full-range query returns everything.
    #[test]
    fn tsdb_inserts_in_any_order_stay_sorted(
        mut times in prop::collection::vec(0u64..10_000, 1..80),
    ) {
        let mut db = TimeSeriesStore::new();
        let topic: Topic = "prop/series".parse().expect("valid");
        for &t in &times {
            db.insert(&topic, Payload::new(t as f64, SimTime::from_micros(t)));
        }
        let points = db.query("prop/series", SimTime::ZERO, SimTime::from_secs(3600));
        prop_assert_eq!(points.len(), times.len());
        prop_assert!(points.windows(2).all(|w| w[0].0 <= w[1].0), "sorted");
        // The multiset of timestamps is preserved.
        let mut got: Vec<u64> = points.iter().map(|(t, _)| t.as_micros()).collect();
        times.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, times);
    }

    #[test]
    fn tsdb_mean_lies_between_min_and_max(
        values in prop::collection::vec(-1e6f64..1e6, 1..60),
    ) {
        let mut db = TimeSeriesStore::new();
        let topic: Topic = "prop/agg".parse().expect("valid");
        for (i, v) in values.iter().enumerate() {
            db.insert(&topic, Payload::new(*v, SimTime::from_millis(i as u64)));
        }
        let (from, to) = (SimTime::ZERO, SimTime::from_secs(100));
        let mean = db.aggregate("prop/agg", from, to, Aggregation::Mean).expect("points");
        let min = db.aggregate("prop/agg", from, to, Aggregation::Min).expect("points");
        let max = db.aggregate("prop/agg", from, to, Aggregation::Max).expect("points");
        prop_assert!(min <= mean + 1e-9 && mean <= max + 1e-9, "{min} <= {mean} <= {max}");
    }

    #[test]
    fn downsampled_bins_never_exceed_the_requested_count(
        count in 1usize..100,
        bin_ms in 1u64..500,
    ) {
        let mut db = TimeSeriesStore::new();
        let topic: Topic = "prop/bins".parse().expect("valid");
        for i in 0..count {
            db.insert(&topic, Payload::new(i as f64, SimTime::from_millis(i as u64 * 10)));
        }
        let to = SimTime::from_millis(count as u64 * 10);
        let bins = db.downsample(
            "prop/bins",
            SimTime::ZERO,
            to,
            SimDuration::from_millis(bin_ms),
            Aggregation::Count,
        );
        let expected_max = (count as u64 * 10).div_ceil(bin_ms) as usize;
        prop_assert!(bins.len() <= expected_max, "{} > {}", bins.len(), expected_max);
        let total: f64 = bins.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(total as usize, count, "no point lost or duplicated");
    }

    #[test]
    fn phi_detector_never_suspects_an_uninterrupted_heartbeat_stream(
        period_ms in 100u64..30_000,
        beats in 4usize..200,
        // Arrival jitter as a fraction of the period, within the sigma
        // floor's design envelope (±25% of the mean interval).
        jitter_pct in 0u64..20,
        phase in 0u64..7,
    ) {
        use cimone_monitor::heartbeat::{PhiAccrualDetector, DEFAULT_PHI_THRESHOLD};

        let mut det = PhiAccrualDetector::default();
        let mut t = 0u64;
        let mut last = 0u64;
        for i in 0..beats {
            // Deterministic bounded jitter, alternating early/late.
            let jitter = period_ms * jitter_pct / 100;
            let offset = if (i as u64 + phase).is_multiple_of(2) { jitter } else { 0 };
            let at = t + offset;
            det.record(SimTime::from_millis(at));
            // The stream is uninterrupted: evaluated at any point up to the
            // next arrival, suspicion never crosses the threshold.
            for probe in [at, at + period_ms / 2, t + period_ms] {
                let phi = det.phi(SimTime::from_millis(probe.max(last)));
                prop_assert!(
                    phi < DEFAULT_PHI_THRESHOLD,
                    "beat {i}: phi {phi} at probe {probe}ms (period {period_ms}ms)"
                );
            }
            last = at;
            t += period_ms;
        }
    }

    #[test]
    fn payload_round_trips_through_the_wire_format(
        value in -1e9f64..1e9,
        // Bounded so the seconds-as-f64 wire encoding keeps µs resolution.
        micros in 0u64..1_000_000_000_000,
    ) {
        let p = Payload::new(value, SimTime::from_micros(micros));
        let decoded = Payload::decode(&p.encode()).expect("wire format decodes");
        prop_assert_eq!(decoded.value, p.value);
        // Timestamps survive to microsecond resolution.
        let dt = decoded.timestamp.as_micros().abs_diff(p.timestamp.as_micros());
        prop_assert!(dt <= 1, "timestamp drifted by {dt} µs");
    }
}

/// A filter derived from a concrete topic: each segment may be replaced
/// by `+`, and the tail may be truncated and replaced by `#`. Deriving
/// filters from published topics keeps the match rate high enough that
/// the delivery oracle below exercises real routing, not just misses.
fn derived_filter_strategy() -> impl Strategy<Value = TopicFilter> {
    (
        prop::collection::vec((segment_strategy(), any::<bool>()), 1..6),
        // 0..=5 truncates the tail into `#`; 6 means no hash wildcard.
        0usize..7,
    )
        .prop_map(|(segs, hash_at)| {
            let mut parts: Vec<String> = segs
                .into_iter()
                .map(|(s, plus)| if plus { "+".into() } else { s })
                .collect();
            if hash_at < 6 {
                parts.truncate(hash_at.min(parts.len()));
                parts.push("#".into());
            }
            parts.join("/").parse().expect("derived filter is valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The precompiled routing table delivers exactly what a per-message
    /// `filter.matches` oracle predicts — same subscriber set, same
    /// per-queue order — and agrees with the per-message `publish` path.
    #[test]
    fn batched_routing_agrees_with_the_matches_oracle(
        // A small pool of topics so batches revisit routes and filters
        // derived from the same alphabet actually match.
        pool in prop::collection::vec(topic_strategy(), 1..6),
        filters in prop::collection::vec(derived_filter_strategy(), 1..5),
        picks in prop::collection::vec(0usize..6, 1..40),
    ) {
        let batched = Broker::new();
        let serial = Broker::new();
        let subs_batched: Vec<_> =
            filters.iter().map(|f| batched.subscribe(f.clone())).collect();
        let subs_serial: Vec<_> =
            filters.iter().map(|f| serial.subscribe(f.clone())).collect();

        let messages: Vec<(Topic, Payload)> = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let topic = pool[p % pool.len()];
                (topic, Payload::new(i as f64, SimTime::from_millis(i as u64)))
            })
            .collect();

        let mut batch = messages.clone();
        batched.publish_batch_serial(&mut batch);
        for (topic, payload) in &messages {
            serial.publish(topic, *payload);
        }

        for ((filter, sub_b), sub_s) in
            filters.iter().zip(&subs_batched).zip(&subs_serial)
        {
            let expected: Vec<(Topic, f64)> = messages
                .iter()
                .filter(|(t, _)| filter.matches(t))
                .map(|(t, p)| (*t, p.value))
                .collect();
            let got_b: Vec<(Topic, f64)> = sub_b
                .drain()
                .into_iter()
                .map(|m| (m.topic, m.payload.value))
                .collect();
            let got_s: Vec<(Topic, f64)> = sub_s
                .drain()
                .into_iter()
                .map(|m| (m.topic, m.payload.value))
                .collect();
            prop_assert_eq!(&got_b, &expected, "batched path vs oracle for {}", filter);
            prop_assert_eq!(&got_s, &expected, "per-message path vs oracle for {}", filter);
        }
    }
}

/// A telemetry topic in one of the scrub's three classes: node power
/// (range-checked watts), a hwmon temperature (range-checked °C), or a
/// load average the scrub does not judge.
fn scrub_class_topic() -> impl Strategy<Value = Topic> {
    (0usize..3, 0usize..3).prop_map(|(node, class)| {
        let metric = [
            "pwr_pub/chnl/data/total_power",
            "stats/chnl/data/temperature.cpu_temp",
            "stats/chnl/data/load.load1m",
        ][class];
        format!("org/unibo/cluster/cimone/node/mc-node-{node:02}/plugin/{metric}")
            .parse()
            .expect("valid topic")
    })
}

/// Values on both sides of both scrub ranges, plus the non-finite ones.
fn sample_value() -> impl Strategy<Value = f64> {
    (0u32..10, -80.0f64..200.0).prop_map(|(kind, v)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => -1.0e12,
        3 => 2.0e4,
        _ => v,
    })
}

/// One step of a collector's life: a publish (per message or as one
/// batch) of samples with out-of-order timestamps, or a pump.
#[derive(Debug, Clone)]
enum LaneStep {
    Publish {
        batched: bool,
        samples: Vec<(Topic, Payload)>,
    },
    Pump,
}

fn lane_step() -> impl Strategy<Value = LaneStep> {
    let sample = (scrub_class_topic(), sample_value(), 0u64..40)
        .prop_map(|(topic, v, t)| (topic, Payload::new(v, SimTime::from_secs(t))));
    (0u32..4, any::<bool>(), prop::collection::vec(sample, 0..12)).prop_map(
        |(kind, batched, samples)| match kind {
            0 => LaneStep::Pump,
            _ => LaneStep::Publish { batched, samples },
        },
    )
}

/// A store's contents at bit level (NaN and ±∞ land on unjudged metrics).
fn store_bits(store: &TimeSeriesStore) -> Vec<(String, Vec<(u64, u64)>)> {
    store
        .series_names()
        .map(|name| {
            let points = store
                .query(name, SimTime::ZERO, SimTime::from_secs(1000))
                .iter()
                .map(|(t, v)| (t.as_micros(), v.to_bits()))
                .collect();
            (name.to_owned(), points)
        })
        .collect()
}

fn sample_bits((topic, payload): &(Topic, Payload)) -> (Topic, u64, u64) {
    (
        *topic,
        payload.timestamp.as_micros(),
        payload.value.to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The columnar collector against a per-message oracle: a plain
    /// subscription on a twin broker whose messages are scrubbed with
    /// `is_plausible` and stored with `insert`, in arrival order, at the
    /// same pump points. Store, quarantine order, the subscription's
    /// `queued`/`dropped`, pump counts and `BrokerStats` must all agree,
    /// under loss, bounded capacity, both publish paths and (with a
    /// bystander subscriber) both batch-delivery paths.
    #[test]
    fn columnar_collector_matches_the_per_message_oracle(
        steps in prop::collection::vec(lane_step(), 1..24),
        loss in (any::<bool>(), 0.05f64..0.5).prop_map(|(lossy, rate)| if lossy { rate } else { 0.0 }),
        seed in 0u64..u64::MAX,
        capacity in (any::<bool>(), 1usize..12).prop_map(|(bounded, cap)| bounded.then_some(cap)),
        bystander in any::<bool>(),
    ) {
        let policy = ScrubPolicy::monte_cimone();
        let filter: TopicFilter = "org/#".parse().expect("valid");
        let lane_broker = Broker::new();
        let oracle_broker = Broker::new();
        let mut collector = match capacity {
            Some(cap) => Collector::attach_bounded(&lane_broker, filter.clone(), cap),
            None => Collector::attach(&lane_broker, filter.clone()),
        }
        .with_scrub(policy);
        let oracle = match capacity {
            Some(cap) => oracle_broker.subscribe_bounded(filter.clone(), cap),
            None => oracle_broker.subscribe(filter.clone()),
        };
        let bystanders = bystander.then(|| {
            let f: TopicFilter = "org/unibo/cluster/cimone/node/+/plugin/stats/#"
                .parse()
                .expect("valid");
            (lane_broker.subscribe(f.clone()), oracle_broker.subscribe(f))
        });
        lane_broker.set_loss(loss, seed);
        oracle_broker.set_loss(loss, seed);

        let mut lane_store = TimeSeriesStore::new();
        let mut oracle_store = TimeSeriesStore::new();
        let mut oracle_quarantine = Vec::new();
        let mut lane_quarantine = Vec::new();
        for step in steps.into_iter().chain([LaneStep::Pump]) {
            match step {
                LaneStep::Publish { batched, samples } => {
                    if batched {
                        lane_broker.publish_batch_serial(&mut samples.clone());
                        oracle_broker.publish_batch_serial(&mut samples.clone());
                    } else {
                        for (topic, payload) in &samples {
                            lane_broker.publish(topic, *payload);
                            oracle_broker.publish(topic, *payload);
                        }
                    }
                }
                LaneStep::Pump => {
                    let consumed = collector.pump(&mut lane_store);
                    lane_quarantine.extend(collector.take_quarantined());
                    let drained = oracle.drain_each(|msg| {
                        if policy.is_plausible(&msg.topic, &msg.payload) {
                            oracle_store.insert(&msg.topic, msg.payload);
                        } else {
                            oracle_quarantine.push((msg.topic, msg.payload));
                        }
                    });
                    prop_assert_eq!(consumed, drained, "pump count");
                }
            }
            prop_assert_eq!(collector.subscription().queued(), oracle.queued());
            prop_assert_eq!(collector.subscription().dropped(), oracle.dropped());
            prop_assert_eq!(lane_broker.stats(), oracle_broker.stats());
        }
        prop_assert_eq!(store_bits(&lane_store), store_bits(&oracle_store));
        prop_assert_eq!(
            lane_quarantine.iter().map(sample_bits).collect::<Vec<_>>(),
            oracle_quarantine.iter().map(sample_bits).collect::<Vec<_>>(),
            "quarantine order"
        );
        if let Some((lane_side, oracle_side)) = bystanders {
            let bits = |sub: &cimone_monitor::broker::Subscription| {
                sub.drain()
                    .iter()
                    .map(|m| sample_bits(&(m.topic, m.payload)))
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(bits(&lane_side), bits(&oracle_side));
        }
    }
}
