//! The paged TSDB's slack bound on a monitored engine: every series'
//! value pages hold room for fewer than one page (512 values) beyond its
//! points, and a short series holds no more room than a `Vec` of the
//! same pushes would.

use cimone_cluster::engine::{ClockMode, EngineConfig, SimEngine};
use cimone_cluster::healing::RecoveryConfig;
use cimone_monitor::tsdb::TimeSeriesStore;
use cimone_soc::units::{SimDuration, SimTime};

/// Points and value capacity of every series, in name order.
fn series(store: &TimeSeriesStore) -> Vec<(String, usize, usize)> {
    store
        .series_names()
        .map(|name| {
            let view = store.query(name, SimTime::ZERO, SimTime::from_micros(u64::MAX));
            (name.to_owned(), view.len(), store.value_capacity(name))
        })
        .collect()
}

/// The capacity `len` pushes leave a `Vec<f64>` with.
fn pushed_capacity(len: usize) -> usize {
    let mut values = Vec::new();
    for i in 0..len {
        values.push(i as f64);
    }
    values.capacity()
}

#[test]
fn monitored_series_hold_under_one_page_of_slack() {
    // Seven monitored idle hours with the failure detector on: pmu on
    // every 2 s tick, stats every third. Every series is longer than a
    // power of two by more than a page (4,200 or 1,400 points), so a
    // doubling `Vec` would fail the bound.
    let mut engine = SimEngine::new(EngineConfig {
        dt: SimDuration::from_secs(2),
        clock: ClockMode::EventDriven,
        recovery: Some(RecoveryConfig::detection_only()),
        ..EngineConfig::default()
    });
    engine.run_for(SimDuration::from_secs(8_400));
    let idle = series(engine.store());
    assert!(idle.iter().all(|&(_, len, _)| len == 1_400 || len == 4_200));
    for (name, len, capacity) in idle {
        assert!(
            len <= capacity && capacity < len + 512,
            "{name}: {len} points in room for {capacity}"
        );
    }

    // Eleven seconds in, each stats series holds three points: its one
    // page is as small as a `Vec`'s.
    let mut engine = SimEngine::new(EngineConfig::default());
    engine.run_for(SimDuration::from_secs(11));
    let load = engine.schema().stats_topic("mc-node-01", "load_avg.1m");
    let load = load.as_str();
    let start = series(engine.store());
    let &(_, len, capacity) = start
        .iter()
        .find(|(name, ..)| name == load)
        .expect("stats series stored");
    assert_eq!(len, 3);
    assert!(
        capacity <= pushed_capacity(3),
        "three points in room for {capacity}"
    );
    for (name, len, capacity) in start {
        assert!(
            capacity <= pushed_capacity(len),
            "{name}: {len} points in room for {capacity}"
        );
    }
}
